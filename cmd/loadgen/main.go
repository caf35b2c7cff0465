// Command loadgen replays curated dataset problems against a running
// rtlfixerd at a target rate and reports throughput and latency
// percentiles — the synthetic-traffic half of the serving story, and the
// harness behind the coalescing/cache A-B comparison:
//
//	rtlfixerd -addr 127.0.0.1:0 &              # full service
//	loadgen -addr http://127.0.0.1:PORT -n 200 -distinct 1
//	rtlfixerd -coalesce=false -cache=false &   # stripped baseline
//	loadgen -addr http://127.0.0.1:PORT -n 200 -distinct 1
//
// With -distinct 1 every request carries the same source (a thundering
// herd); the coalescing + caching service should clear several times the
// baseline's request rate.
//
// -duration runs for a wall-clock window instead of a fixed count, and
// the report always splits out the first -split-first requests — on a
// fresh daemon they pay the compile misses, so the split shows the
// cold-cache cost against the steady state.
//
// The corpus is the paper's curated erroneous-implementation dataset
// (internal/curate), cycled round-robin over -distinct problems. Exit
// status is non-zero when any request fails at the transport level, no
// request succeeds, any response body is not valid JSON, a -chaos probe
// is not rejected 4xx, or the -max-error-rate budget is exceeded — so CI
// smoke and chaos jobs can assert on it.
//
// Resilience testing: -wait-ready polls /v1/readyz before traffic (a
// prewarming daemon answers 503 until its default fixer is built);
// -chaos replaces every 5th request with a deterministic malformed
// variant the daemon must reject 4xx; -max-error-rate bounds the
// non-2xx fraction of the real traffic — the knobs
// scripts/chaos_smoke.sh drives against a fault-injected daemon.
//
// -progress-interval prints an in-flight tally line to stderr while the
// run is hot; -stages fetches /v1/stats afterwards and renders the
// server's per-stage latency attribution table (requires the daemon to
// run with tracing on, its default).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/curate"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "rtlfixerd base URL")
	n := flag.Int("n", 100, "total requests to send")
	duration := flag.Duration("duration", 0, "wall-clock run length (overrides -n; send until the deadline)")
	splitFirst := flag.Int("split-first", 10, "report the first N requests' latency separately (cold-cache cost vs steady state)")
	qps := flag.Float64("qps", 0, "target request rate (0 = as fast as -concurrency allows)")
	concurrency := flag.Int("concurrency", 8, "concurrent in-flight requests")
	distinct := flag.Int("distinct", 1, "distinct problems cycled through (1 = repeated-source herd)")
	offset := flag.Int("offset", 0, "first corpus entry to replay (heavy 10-iteration problems live at higher indices)")
	seed := flag.Int64("seed", 2024, "corpus curation seed")
	timeoutMS := flag.Int64("timeout-ms", 0, "per-request deadline sent to the server (0 = server default)")
	lint := flag.Bool("lint", false, "drive /v1/lint instead of /v1/fix")
	showStats := flag.Bool("show-stats", false, "fetch and print /v1/stats after the run")
	showStages := flag.Bool("stages", false, "fetch /v1/stats after the run and print the per-stage latency table (needs rtlfixerd -trace)")
	progressInterval := flag.Duration("progress-interval", 0, "print an in-flight progress line to stderr this often (0 = off)")
	chaos := flag.Bool("chaos", false, "replace every 5th request with a deterministic malformed variant; they must all be rejected 4xx")
	maxErrorRate := flag.Float64("max-error-rate", -1, "exit non-zero when (transport errors + non-2xx) / sent exceeds this (chaos requests excluded; <0 = off)")
	waitReady := flag.Duration("wait-ready", 0, "poll /v1/readyz for up to this long before sending traffic (0 = off)")
	flag.Parse()

	if (*n <= 0 && *duration <= 0) || *concurrency <= 0 || *distinct <= 0 {
		fmt.Fprintln(os.Stderr, "loadgen: -n (or -duration), -concurrency and -distinct must be positive")
		os.Exit(2)
	}

	entries, _ := curate.Build(curate.Options{Seed: *seed})
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: empty corpus")
		os.Exit(1)
	}
	if *distinct > len(entries) {
		fmt.Fprintf(os.Stderr, "loadgen: corpus has %d problems; clamping -distinct\n", len(entries))
		*distinct = len(entries)
	}
	if *offset < 0 || *offset >= len(entries) {
		fmt.Fprintf(os.Stderr, "loadgen: -offset outside corpus [0, %d)\n", len(entries))
		os.Exit(2)
	}
	type req struct {
		body []byte
	}
	endpoint := "/v1/fix"
	if *lint {
		endpoint = "/v1/lint"
	}
	corpus := make([]req, *distinct)
	for i := range corpus {
		e := entries[(*offset+i)%len(entries)]
		body, err := json.Marshal(map[string]any{
			"source":     e.Code,
			"filename":   e.ProblemID + ".v",
			"seed":       int64(i) + 1,
			"timeout_ms": *timeoutMS,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		corpus[i] = req{body: body}
	}

	// Bound every request so a wedged daemon fails the run loudly
	// instead of hanging it (CI asserts on loadgen's exit code).
	clientTimeout := 2 * time.Minute
	if *timeoutMS > 0 {
		clientTimeout = time.Duration(*timeoutMS)*time.Millisecond + 30*time.Second
	}
	// Default transport keeps only 2 idle conns per host; at higher
	// concurrency that re-dials TCP per request and the measurement
	// becomes connection churn.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = *concurrency
	client := &http.Client{Timeout: clientTimeout, Transport: transport}

	// Gate on readiness, not liveness: a prewarming or draining daemon
	// answers /v1/readyz 503 while /v1/healthz stays 200, and
	// measuring against a warming daemon skews every first-N split.
	if *waitReady > 0 {
		deadline := time.Now().Add(*waitReady)
		for {
			resp, err := client.Get(*addr + "/v1/readyz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				fmt.Fprintf(os.Stderr, "loadgen: daemon not ready after %v\n", *waitReady)
				os.Exit(1)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	hist := metrics.NewLatencyHistogram()
	// The first -split-first requests are histogrammed separately: on a
	// fresh daemon they pay the compile misses, so the split separates
	// the cold-cache cost from the steady state.
	histFirst := metrics.NewLatencyHistogram()
	histRest := metrics.NewLatencyHistogram()

	// Pacing: the feeder hands out request indices, ticking at -qps when
	// set; it stops at -n requests, or at the -duration deadline.
	next := make(chan int)
	go func() {
		defer close(next)
		var deadline time.Time
		if *duration > 0 {
			deadline = time.Now().Add(*duration)
		}
		var tick *time.Ticker
		if *qps > 0 {
			tick = time.NewTicker(time.Duration(float64(time.Second) / *qps))
			defer tick.Stop()
		}
		for i := 0; ; i++ {
			if *duration > 0 {
				if !time.Now().Before(deadline) {
					return
				}
			} else if i >= *n {
				return
			}
			next <- i
			if tick != nil {
				<-tick.C
			}
		}
	}()

	// Aggregated under one mutex; a -duration run can send hundreds of
	// thousands of requests, so no per-request state is retained.
	var wg sync.WaitGroup
	var tallyMu sync.Mutex
	statusCounts := map[int]int{}
	sent, transportErrs, fixed := 0, 0, 0
	// Chaos and well-formedness tallies: chaos requests are tracked apart
	// from the real traffic (they must be rejected 4xx, and must never
	// pollute the error rate or latency report); malformed counts any
	// response body that is not valid JSON, chaos or not.
	chaosSent, chaosRejected, chaosUnexpected, malformed := 0, 0, 0, 0
	start := time.Now()

	// Periodic in-flight progress on stderr (stdout stays a parseable
	// report): sent/served/error tallies and the running served rate.
	progressDone := make(chan struct{})
	if *progressInterval > 0 {
		go func() {
			tick := time.NewTicker(*progressInterval)
			defer tick.Stop()
			for {
				select {
				case <-progressDone:
					return
				case <-tick.C:
					tallyMu.Lock()
					sentNow, servedNow, errsNow := sent, statusCounts[http.StatusOK], transportErrs
					tallyMu.Unlock()
					el := time.Since(start)
					fmt.Fprintf(os.Stderr, "loadgen: [%v] sent=%d served=%d errors=%d (%.1f served/s)\n",
						el.Round(time.Second), sentNow, servedNow, errsNow,
						float64(servedNow)/el.Seconds())
				}
			}
		}()
	}
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				// Every 5th index becomes a malformed probe under -chaos:
				// deterministic in i, so two same-flag runs send the same
				// byte sequence regardless of concurrency or timing.
				if *chaos && i%5 == 4 {
					resp, err := client.Post(*addr+endpoint, "application/json",
						strings.NewReader(chaosBody(i)))
					ok4xx, bad := false, false
					if err == nil {
						data, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						ok4xx = resp.StatusCode >= 400 && resp.StatusCode < 500
						bad = len(data) > 0 && !json.Valid(data)
					}
					tallyMu.Lock()
					chaosSent++
					if ok4xx {
						chaosRejected++
					} else {
						chaosUnexpected++
					}
					if bad {
						malformed++
					}
					tallyMu.Unlock()
					continue
				}
				began := time.Now()
				resp, err := client.Post(*addr+endpoint, "application/json",
					bytes.NewReader(corpus[i%*distinct].body))
				ms := float64(time.Since(began)) / float64(time.Millisecond)
				status, success, bad := 0, false, false
				if err == nil {
					var body struct {
						Success bool `json:"success"`
						Ok      bool `json:"ok"`
					}
					data, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					bad = len(data) > 0 && !json.Valid(data)
					_ = json.Unmarshal(data, &body)
					status = resp.StatusCode
					success = body.Success || body.Ok
					// Percentiles describe served requests only: fast
					// 429/503 rejections must not flatter the report.
					if status == http.StatusOK {
						hist.Observe(ms)
						if i < *splitFirst {
							histFirst.Observe(ms)
						} else {
							histRest.Observe(ms)
						}
					}
				}
				tallyMu.Lock()
				sent++
				if err != nil {
					transportErrs++
				} else {
					statusCounts[status]++
					if bad {
						malformed++
					}
					if status == http.StatusOK && success {
						fixed++
					}
				}
				tallyMu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(progressDone)
	elapsed := time.Since(start)

	// Throughput counts served (200) responses only: a daemon shedding
	// load with fast 429s must not report as fast serving.
	served := statusCounts[http.StatusOK]
	fmt.Printf("loadgen: %d requests to %s%s in %v (%.1f served/s, %.1f sent/s)\n", sent, *addr, endpoint,
		elapsed.Round(time.Millisecond),
		float64(served)/elapsed.Seconds(), float64(sent)/elapsed.Seconds())
	var codes []int
	for c := range statusCounts {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	var parts []string
	for _, c := range codes {
		parts = append(parts, fmt.Sprintf("%d×%d", c, statusCounts[c]))
	}
	if transportErrs > 0 {
		parts = append(parts, fmt.Sprintf("transport-error×%d", transportErrs))
	}
	fmt.Printf("loadgen: status %s; %d succeeded\n", strings.Join(parts, " "), fixed)
	if *chaos {
		fmt.Printf("loadgen: chaos %d sent, %d rejected 4xx, %d NOT rejected\n",
			chaosSent, chaosRejected, chaosUnexpected)
	}
	if malformed > 0 {
		fmt.Printf("loadgen: %d responses carried malformed JSON\n", malformed)
	}
	s := hist.Snapshot()
	if s.Count > 0 {
		fmt.Printf("loadgen: latency ms p50=%.2f p90=%.2f p99=%.2f max=%.2f\n", s.P50, s.P90, s.P99, s.Max)
	}
	// The cold-vs-warm split: mean latency of the first requests against
	// the steady state that follows them.
	if f, rest := histFirst.Snapshot(), histRest.Snapshot(); f.Count > 0 && rest.Count > 0 {
		fmt.Printf("loadgen: first %d requests mean=%.2fms p50=%.2f max=%.2f; remaining %d mean=%.2fms p50=%.2f max=%.2f (first/rest ratio %.1fx)\n",
			f.Count, f.Sum/float64(f.Count), f.P50, f.Max,
			rest.Count, rest.Sum/float64(rest.Count), rest.P50, rest.Max,
			(f.Sum/float64(f.Count))/(rest.Sum/float64(rest.Count)))
	}

	if *showStats || *showStages {
		resp, err := client.Get(*addr + "/v1/stats")
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: stats: %v\n", err)
			os.Exit(1)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if *showStats {
			var pretty bytes.Buffer
			if json.Indent(&pretty, data, "", "  ") == nil {
				fmt.Printf("loadgen: /v1/stats:\n%s\n", pretty.Bytes())
			} else {
				fmt.Printf("loadgen: /v1/stats: %s\n", data)
			}
		}
		if *showStages {
			// The server-side stage attribution: span durations folded per
			// stage from finished request traces (rtlfixerd -trace).
			var wire struct {
				Stages map[string]metrics.HistogramSnapshot `json:"stages"`
			}
			if err := json.Unmarshal(data, &wire); err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: stats decode: %v\n", err)
				os.Exit(1)
			}
			if table := trace.RenderStageTable(wire.Stages); table != "" {
				fmt.Print(table)
			} else {
				fmt.Fprintln(os.Stderr, "loadgen: no stage data (is rtlfixerd running with -trace?)")
			}
		}
	}

	if transportErrs > 0 || statusCounts[http.StatusOK] == 0 {
		os.Exit(1)
	}
	// Robustness gates: any non-JSON response or any malformed probe the
	// server failed to reject is a correctness bug, regardless of rate.
	if malformed > 0 || chaosUnexpected > 0 {
		os.Exit(1)
	}
	if *maxErrorRate >= 0 && sent > 0 {
		// Everything that is not a 200 — transport failures included —
		// counts against the budget; chaos probes are already excluded
		// from sent.
		rate := float64(sent-served) / float64(sent)
		if rate > *maxErrorRate {
			fmt.Fprintf(os.Stderr, "loadgen: error rate %.4f over -max-error-rate %.4f\n", rate, *maxErrorRate)
			os.Exit(1)
		}
	}
}

// chaosBody returns the malformed request variant for one chaos index.
// All five shapes must be rejected 4xx by a robust daemon: syntactically
// broken JSON, an unknown field, a missing source, an unknown mode, and
// a negative timeout.
func chaosBody(i int) string {
	switch (i / 5) % 5 {
	case 0:
		return `{"source": "module m; endmodule", ` // truncated JSON
	case 1:
		return `{"source": "module m;\nendmodule\n", "sourcecode": "dup"}`
	case 2:
		return `{"source": "   "}`
	case 3:
		return `{"source": "module m;\nendmodule\n", "mode": "zero-shot"}`
	default:
		return `{"source": "module m;\nendmodule\n", "timeout_ms": -1}`
	}
}
