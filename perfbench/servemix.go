package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/curate"
	"repro/internal/server"
	"repro/internal/trace"
)

// serve-mix drives a fresh default-config server in-process through
// ServeHTTP, with no sockets. It is the only workload exercising
// admission, batching, the fixer pool, pipeline dispatch, JSON handling
// and the post-fix sim check.
//
// The traffic is cmd/loadgen's: its default 8 concurrent closed-loop
// callers, and its request bodies (source, "<problem>.v" filename,
// seed i+1 for corpus entry i) replayed round-robin over the whole
// curated corpus (loadgen -distinct 212). The seed only shuffles the
// cycle order, so every run visits every entry equally often. loadgen
// sends either all /v1/fix or all /v1/lint; here every fifth request is
// a lint. That 20% share is not taken from measured traffic.
//
// With 8 callers the default 4 run slots (on 2 cores) stay busy and
// batches fill from the queue, so the 2 ms batch linger does not set
// the latency.
// Each source recurs only after a full cycle, so requests almost never
// coalesce, and after the first cycle the memo layer answers nearly
// every compile.
var serveMix = workload{
	name:     "serve-mix",
	clients:  8,
	units:    func(seconds int) int { return (7*seconds + 1) / 2 },
	setup:    setupServeMix,
	stageAgg: true,
}

const serveLintEvery = 5 // every fifth request is /v1/lint

type serveMixRun struct {
	seed    int64
	entries []curate.Entry
	bodies  [][]byte // request body per entry
	srv     *server.Server
	direct  *core.RTLFixer // same configuration as the server's pooled fixer
	order   []int          // entry of each position in the cycle

	// A caller keeps only what the checks need of each reply, as an
	// index into the distinct fix answers (lintReply for a lint), so the
	// checks' memory does not grow with the run.
	mu    sync.Mutex
	ids   map[fixBody]int
	fixes []fixBody
	resp  []int
}

const lintReply = -1

// serveFixer is the configuration a request with every field omitted
// gets from a default-config server.
var serveFixer = core.Options{
	CompilerName:  "quartus",
	PersonaName:   "gpt-3.5",
	RAG:           true,
	Mode:          core.ModeReAct,
	MaxIterations: 10,
	Cache:         true,
}

// setupServeMix builds a run of the given number of windows. A window
// is serveLintEvery cycles over the corpus, a whole number of both the
// corpus cycle and the lint period, so every window sends the same
// requests.
func setupServeMix(seed int64, windows int, coll *trace.Collector, st *setupTimes) (runner, error) {
	r := &serveMixRun{seed: seed, entries: st.buildCurated()}
	requests := windows * serveLintEvery * len(r.entries)
	for i, e := range r.entries {
		body, err := json.Marshal(map[string]any{
			"source":     e.Code,
			"filename":   serveFilename(e),
			"seed":       serveSeed(i),
			"timeout_ms": 0,
		})
		if err != nil {
			return nil, err
		}
		r.bodies = append(r.bodies, body)
	}
	direct, err := st.newFixer(serveFixer)
	if err != nil {
		return nil, err
	}
	r.direct = direct
	r.srv = server.New(server.Config{Tracing: coll})
	r.order = rand.New(rand.NewSource(seed)).Perm(len(r.entries))
	r.ids = map[fixBody]int{}
	r.resp = make([]int, requests)
	return r, nil
}

func serveFilename(e curate.Entry) string { return e.ProblemID + ".v" }

// serveSeed is the seed loadgen sends for corpus entry i.
func serveSeed(i int) int64 { return int64(i) + 1 }

// request is the i-th request: its entry and whether it is a fix.
func (r *serveMixRun) request(i int) (entry int, fix bool) {
	return r.order[i%len(r.order)], i%serveLintEvery != serveLintEvery-1
}

func (r *serveMixRun) ops() int { return len(r.resp) }

func (r *serveMixRun) window() int { return serveLintEvery * len(r.entries) }

func (r *serveMixRun) op(i int) error {
	entry, fix := r.request(i)
	path := "/v1/lint"
	if fix {
		path = "/v1/fix"
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(r.bodies[entry]))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	r.srv.ServeHTTP(rec, req)
	body := rec.Body.Bytes()
	if rec.Code/100 != 2 {
		return fmt.Errorf("%s: HTTP %d: %s", path, rec.Code, bytes.TrimSpace(body))
	}
	// Like loadgen, the caller reads every reply: a lint must be JSON,
	// a fix is decoded for the checks after the timed phase.
	if !fix {
		if !json.Valid(body) {
			return fmt.Errorf("%s: reply is not JSON: %.200s", path, body)
		}
		r.resp[i] = lintReply
		return nil
	}
	var got fixBody
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: decoding reply: %w", path, err)
	}
	r.mu.Lock()
	id, ok := r.ids[got]
	if !ok {
		id = len(r.fixes)
		r.ids[got] = id
		r.fixes = append(r.fixes, got)
	}
	r.resp[i] = id
	r.mu.Unlock()
	return nil
}

type fixBody struct {
	Success    bool   `json:"success"`
	Iterations int    `json:"iterations"`
	FinalCode  string `json:"final_code"`
}

// verify compares every /v1/fix answer with a direct Fix of the same
// request on a fixer of the same configuration and scores pass@1 of the
// fixed code; op has already checked that every answer is JSON.
func (r *serveMixRun) verify(bad []bool) outcome {
	want := map[int]fixBody{}
	passes := map[passKey]bool{}
	fixes, fixed, passed := 0, 0, 0
	for i, id := range r.resp {
		if bad[i] || id == lintReply {
			continue
		}
		entry, _ := r.request(i)
		got := r.fixes[id]
		exp, ok := want[entry]
		if !ok {
			e := r.entries[entry]
			tr := r.direct.Fix(serveFilename(e), e.Code, serveSeed(entry))
			exp = fixBody{Success: tr.Success, Iterations: tr.Iterations, FinalCode: tr.FinalCode}
			want[entry] = exp
		}
		if got != exp {
			bad[i] = true
			continue
		}
		fixes++
		if !got.Success {
			continue
		}
		fixed++
		if passesProblem(passes, r.entries[entry], got.FinalCode, vecSeed(r.seed, entry)) {
			passed++
		}
	}
	return outcome{
		fixRate: ratio(float64(fixed), float64(fixes)),
		passAt1: ratio(float64(passed), float64(fixes)),
	}
}

func (r *serveMixRun) close() {
	if err := r.srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix: closing server: %v\n", err)
	}
}
