package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/curate"
	"repro/internal/memo"
	"repro/internal/trace"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// clients is how many goroutines run operations: one for the
	// offline workloads, closed-loop callers for the service.
	clients int
	// units turns --seconds into an amount of work. The amount depends
	// on nothing else, so every run with the same seed and seconds does
	// identical work; the constants put the timed phase near --seconds
	// on a 2-core Xeon.
	units func(seconds int) int
	// setup builds one run's fresh state. coll is nil for an untraced
	// run; otherwise every operation's spans end up in it.
	setup func(seed int64, units int, coll *trace.Collector, st *setupTimes) (runner, error)
	// stageAgg is set when the program hangs its own stage aggregation
	// off the collector (server.New does). The traced run then replaces
	// that hook with one doing the same aggregation, plus keeping the
	// trace for the ledger.
	stageAgg bool
}

// runner is one run's state: its operations and the checks on them.
type runner interface {
	// ops is the number of operations the timed phase performs.
	ops() int
	// window is how many consecutive operations make one window: a
	// slice of the run that does the same mix of work as every other
	// window. ops is a multiple of it.
	window() int
	// op performs operation i. Operations are handed out in index
	// order; with one client they run in that order.
	op(i int) error
	// verify checks every operation's output after the timed phase,
	// marking each mismatch in bad, and scores the run.
	verify(bad []bool) outcome
	close()
}

// outcome is a run's deterministic score.
type outcome struct {
	fixRate float64 // share of attempted fixes whose final code compiles
	passAt1 float64 // pass@1 after fixing
}

var workloads = []workload{repairSweep, passkEval, serveMix}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// unitsFor sizes a workload whose unit of work takes about unitSeconds.
func unitsFor(seconds int, unitSeconds float64) int {
	return max(1, int(math.Round(float64(seconds)/unitSeconds)))
}

// setupTimes records the layer calls made while setting up.
type setupTimes struct {
	curate  []time.Duration
	coreNew []time.Duration
}

// curateSeed fixes the debugging dataset to the one cmd/benchmark
// curates by default, as the paper fixes its 212 samples; the run's seed
// drives the model and the request stream instead. Seeding curation too
// would let the set of entries, not the code, decide the figures.
const curateSeed = 2024

func (st *setupTimes) buildCurated() []curate.Entry {
	t0 := time.Now()
	entries, _ := curate.Build(curate.Options{Seed: curateSeed})
	st.curate = append(st.curate, time.Since(t0))
	return entries
}

func (st *setupTimes) newFixer(opts core.Options) (*core.RTLFixer, error) {
	t0 := time.Now()
	f, err := core.New(opts)
	st.coreNew = append(st.coreNew, time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("core.New(%+v): %w", opts, err)
	}
	return f, nil
}

// Set-up repeats until it has run minSetupReps times and for at least
// minSetupTime, so that a set-up of a millisecond is still a median of
// many samples.
const (
	minSetupReps = 5
	maxSetupReps = 50
	minSetupTime = time.Second
)

type setupResult struct {
	r       runner
	median  time.Duration
	curate  time.Duration // mean per curate.Build call; 0 if none
	coreNew time.Duration // mean per core.New call
}

// setUp builds the run's state several times, keeping the last build,
// and reports median times.
func setUp(w workload, o options, coll *trace.Collector) (setupResult, error) {
	var res setupResult
	var total time.Duration
	var durs []time.Duration
	var st setupTimes
	for rep := 0; rep < maxSetupReps && (rep < minSetupReps || total < minSetupTime); rep++ {
		if res.r != nil {
			res.r.close()
		}
		t0 := time.Now()
		r, err := w.setup(o.seed, w.units(o.seconds), coll, &st)
		d := time.Since(t0)
		if err != nil {
			return res, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		res.r = r
		durs = append(durs, d)
		total += d
	}
	res.median = median(durs)
	res.curate = mean(st.curate)
	res.coreNew = mean(st.coreNew)
	return res, nil
}

// timed is what one timed phase measured.
type timed struct {
	lat      []time.Duration
	bad      []bool
	errs     []string // first few operation errors, for the log
	wall     time.Duration
	mallocs  uint64
	gcCycles uint32
	gcPause  time.Duration
	peakRSS  uint64        // bytes, sampled over the phase
	marks    []mark        // start of each window, then the phase's end
	steal    time.Duration // CPU steal over the phase, all CPUs
	compile  memo.Stats    // memo compile-cache delta over the phase
	sim      memo.Stats    // memo sim-cache delta over the phase
}

// mark is the wall clock, process CPU time and host CPU steal at a
// window boundary.
type mark struct {
	at    time.Time
	cpu   time.Duration
	steal time.Duration
}

func markNow() mark { return mark{time.Now(), cpuTime(), stealTime()} }

// drive runs every operation of r over w.clients goroutines, each
// taking the next operation as soon as its previous one returns.
func drive(r runner, clients int) timed {
	n, win := r.ops(), r.window()
	if win < 1 || n%win != 0 {
		panic(fmt.Sprintf("%d operations do not split into windows of %d", n, win))
	}
	t := timed{lat: make([]time.Duration, n), bad: make([]bool, n), marks: make([]mark, n/win+1)}
	var errMu sync.Mutex
	// Collect the set-ups' garbage and hand its pages back, so the
	// phase's RSS starts from what the run holds live.
	debug.FreeOSMemory()
	rss := startRSSSampler()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	memo0 := memo.TotalsByKind()
	t0 := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if i%win == 0 {
					t.marks[i/win] = markNow()
				}
				s := time.Now()
				err := safeOp(r, i)
				t.lat[i] = time.Since(s)
				if err != nil {
					t.bad[i] = true
					errMu.Lock()
					if len(t.errs) < 5 {
						t.errs = append(t.errs, fmt.Sprintf("op %d: %v", i, err))
					}
					errMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	t.wall = time.Since(t0)
	t.marks[n/win] = markNow()
	t.peakRSS = rss.stop()
	t.steal = t.marks[n/win].steal - t.marks[0].steal
	memo1 := memo.TotalsByKind()
	runtime.ReadMemStats(&ms1)
	t.mallocs = ms1.Mallocs - ms0.Mallocs
	t.gcCycles = ms1.NumGC - ms0.NumGC
	t.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	t.compile = memo1.Compile.Sub(memo0.Compile)
	t.sim = memo1.Sim.Sub(memo0.Sim)
	return t
}

// windowTimes are the timing metrics of a phase, each the median over
// its quiet windows: those that lost no more CPU to the hypervisor
// (steal) than the median window. Steal on the shared host comes in
// bursts of a few seconds. Every window does the same mix of work, so
// a change to the code moves every window, while a burst slows only the
// windows it falls in, which the choice of windows and the median pass
// over.
type windowTimes struct {
	throughput float64 // operations per second
	p50, p90   float64 // ms
	cpuPerOp   float64 // ms
	windows    int
	quiet      int
}

func (t timed) windowed() windowTimes {
	k := len(t.marks) - 1
	win := len(t.lat) / k
	steals := make([]float64, k)
	for w := range steals {
		steals[w] = float64(t.marks[w+1].steal - t.marks[w].steal)
	}
	limit := medianF(steals)
	var thr, p50, p90, cpu []float64
	for w := 0; w < k; w++ {
		if steals[w] > limit {
			continue
		}
		a, b := t.marks[w], t.marks[w+1]
		lat := t.lat[w*win : (w+1)*win]
		thr = append(thr, float64(win)/b.at.Sub(a.at).Seconds())
		p50 = append(p50, ms(percentile(lat, 0.50)))
		p90 = append(p90, ms(percentile(lat, 0.90)))
		cpu = append(cpu, ms(b.cpu-a.cpu)/float64(win))
	}
	return windowTimes{medianF(thr), medianF(p50), medianF(p90), medianF(cpu), k, len(thr)}
}

// safeOp turns a panicking operation into a failed one.
func safeOp(r runner, i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return r.op(i)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the time the hypervisor gave this machine's CPUs to
// other guests (all CPUs, from /proc/stat; 0 where not reported). It is
// a diagnostic: a run with seconds of steal measured a slowed host.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / 100 // USER_HZ
}

// rssSampler polls the process's resident set size while a timed phase
// runs. The kernel's high-water mark would also count set-up, so the
// phase's peak is sampled instead; RSS of a Go process changes in heap
// growth steps, far slower than the 5 ms poll.
type rssSampler struct {
	stopc chan struct{}
	done  chan uint64
}

const rssPoll = 5 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan uint64)}
	go func() {
		// One open file and one buffer: polling allocates nothing, so
		// it does not show in allocs_per_op.
		f, err := os.Open("/proc/self/statm")
		if err != nil {
			<-s.stopc
			s.done <- 0
			return
		}
		defer f.Close()
		buf := make([]byte, 128)
		peak := uint64(0)
		read := func() {
			if n, _ := f.ReadAt(buf, 0); n > 0 {
				peak = max(peak, residentBytes(buf[:n]))
			}
		}
		tick := time.NewTicker(rssPoll)
		defer tick.Stop()
		for {
			read()
			select {
			case <-tick.C:
			case <-s.stopc:
				read()
				s.done <- peak
				return
			}
		}
	}()
	return s
}

// stop ends the polling and returns the peak RSS in bytes (0 where
// /proc is missing).
func (s *rssSampler) stop() uint64 {
	close(s.stopc)
	return <-s.done
}

// residentBytes parses the second field of /proc/self/statm (resident
// pages).
func residentBytes(statm []byte) uint64 {
	field, pages := 0, uint64(0)
	for _, c := range statm {
		switch {
		case c == ' ':
			field++
		case field == 1 && c >= '0' && c <= '9':
			pages = pages*10 + uint64(c-'0')
		case field > 1:
			return pages * uint64(os.Getpagesize())
		}
	}
	return pages * uint64(os.Getpagesize())
}

// finish verifies the outputs and fills the counts every result carries.
func finish(w workload, r runner, t timed) (*result, outcome) {
	oc := r.verify(t.bad)
	res := &result{Attempted: len(t.bad)}
	for _, b := range t.bad {
		if b {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	for _, e := range t.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, e)
	}
	return res, oc
}

// runtimeLine is the untraced run's wall clock, CPU steal, window
// counts and GC figures, printed before the result; a traced run reads
// them from its untraced child.
type runtimeLine struct {
	WallS        float64 `json:"wall_s"`
	StealS       float64 `json:"steal_s"`
	Windows      int     `json:"windows"`
	QuietWindows int     `json:"quiet_windows"`
	GCCycles     uint32  `json:"gc_cycles"`
	GCPauseMS    float64 `json:"gc_pause_ms"`
}

// untracedRun measures the end-to-end metrics. It also returns the
// phase's GC figures, which the traced mode reports as per-layer.
func untracedRun(w workload, o options) (*result, runtimeLine, error) {
	s, err := setUp(w, o, nil)
	if err != nil {
		return nil, runtimeLine{}, err
	}
	defer s.r.close()
	t := drive(s.r, w.clients)
	res, oc := finish(w, s.r, t)
	ops := float64(len(t.lat))
	wt := t.windowed()
	res.set("setup_s", s.median.Seconds(), "s")
	res.set("throughput_per_s", wt.throughput, "1/s")
	res.set("p50_ms", wt.p50, "ms")
	res.set("p90_ms", wt.p90, "ms")
	res.set("cpu_ms_per_op", wt.cpuPerOp, "ms")
	res.set("allocs_per_op", float64(t.mallocs)/ops, "count")
	res.set("peak_rss_mb", float64(t.peakRSS)/(1<<20), "MB")
	res.set("fix_rate", oc.fixRate, "ratio")
	res.set("pass_at_1", oc.passAt1, "ratio")
	return res, runtimeLine{
		WallS: t.wall.Seconds(), StealS: t.steal.Seconds(),
		Windows: wt.windows, QuietWindows: wt.quiet,
		GCCycles: t.gcCycles, GCPauseMS: ms(t.gcPause),
	}, nil
}

// untracedSide runs the untraced run a traced run compares itself
// with, returning its GC figures and whether its outputs were correct.
type untracedSide func(options) (runtimeLine, bool, error)

// tracedRun measures the per-layer ledger: the same work as the
// untraced run, with every operation traced. The benchmark runs the
// untraced side in a child process (untracedChild), so that both sides
// start with the same cold process-wide caches.
func tracedRun(w workload, o options, untraced untracedSide) (*result, error) {
	coll := trace.NewCollector(0, -1, 0)
	s, err := setUp(w, o, coll)
	if err != nil {
		return nil, err
	}
	defer s.r.close()
	sink := &traceSink{}
	if w.stageAgg {
		sink.stages = trace.NewStageAgg()
	}
	coll.SetOnFinish(sink.observe)
	t := drive(s.r, w.clients)
	res, _ := finish(w, s.r, t)
	rt, childOK, err := untraced(o)
	if err != nil {
		return nil, err
	}
	if !childOK {
		res.Correct = false
	}

	traces, err := sink.finished(coll)
	if err != nil {
		return nil, err
	}
	layers, err := ledgerMetrics(traces, t.lat)
	if err != nil {
		return nil, err
	}
	for name, m := range layers {
		res.set(name, m.Value, m.Unit)
	}
	res.set("curate.build_ms", ms(s.curate), "ms")
	res.set("core.new_ms", ms(s.coreNew), "ms")
	res.set("memo.compile_hit_ratio", hitRatio(t.compile), "ratio")
	res.set("memo.sim_hit_ratio", hitRatio(t.sim), "ratio")
	res.set("runtime.gc_cycles", float64(rt.GCCycles), "count")
	res.set("runtime.gc_pause_ms", rt.GCPauseMS, "ms")
	res.set("trace.overhead_ratio", t.wall.Seconds()/rt.WallS, "ratio")
	return res, nil
}

// untracedChild runs this binary again with --trace 0 and returns the
// GC figures and timed wall clock it printed.
func untracedChild(o options) (runtimeLine, bool, error) {
	var rt runtimeLine
	exe, err := os.Executable()
	if err != nil {
		return rt, false, fmt.Errorf("locating own binary: %w", err)
	}
	cmd := exec.Command(exe, "--workload", o.workload, "--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return rt, false, fmt.Errorf("untraced child run: %w", err)
	}
	var last string
	found := false
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if js, ok := strings.CutPrefix(line, "runtime "); ok {
			if err := json.Unmarshal([]byte(js), &rt); err != nil {
				return rt, false, fmt.Errorf("untraced child runtime line: %w", err)
			}
			found = true
		}
		last = line
	}
	var child result
	if err := json.Unmarshal([]byte(last), &child); err != nil || !found || rt.WallS <= 0 {
		return rt, false, fmt.Errorf("untraced child printed no result")
	}
	return rt, child.Correct && child.Failed == 0, nil
}

func hitRatio(s memo.Stats) float64 { return ratio(float64(s.Hits), float64(s.Hits+s.Misses)) }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank percentile of ds (which it sorts a copy of).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

// medianF is the median of xs (which it sorts a copy of); for an even
// count, the mean of the middle two.
func medianF(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
