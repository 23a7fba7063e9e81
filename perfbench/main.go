// Command perfbench is the repository's end-to-end benchmark. It drives
// the real packages through the two costs a preservation site pays for
// decades: the recurring spd cycle and the status request a
// collaborator or dashboard makes against spserve.
//
//	perfbench -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (see BENCHMARK.json for sizes and the reason for each):
//
//	drain-remote  one experiment moves per iteration over a 10k-run
//	              archive (quick-scale experiments); its stale cells are
//	              drained by a remote worker and the primary through the
//	              lease queue
//	serve-live    a closed-loop client polling and browsing the 100k-run
//	              archive while a writer appends runs
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics. With --trace 0 the metrics are the
// end-to-end ones, measured with no instrumentation installed. With
// --trace 1 the run measures half its time untraced and half traced,
// and reports the per-layer counters of the traced half, the
// end-to-end figures of each workload by name, and the difference
// between the halves as the tracing overhead. The traced run writes its
// spans to standard error as JSON lines.
//
// Archive fixtures are built on first use under DIR/fixtures and
// reused by every later run; each run works on a hard-linked clone.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/cron"
	"repro/internal/simrand"
)

// wallNow is the benchmark's only clock: the repository's wall-clock
// seam.
var wallNow = cron.Wall()

func since(t time.Time) time.Duration { return wallNow().Sub(t) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and what it measured.
type run struct {
	work    string
	dir     string          // this run's scratch directory
	rng     *simrand.Source // draws every seeded input
	seconds float64
	traced  bool

	tr *tracer // the traced half's tracer (nil until then)

	setup     []float64 // seconds, one per repetition
	attempted int
	failed    int
	problems  []string // failed output checks

	e2e   map[string]metric // end-to-end figures
	layer map[string]metric // per-layer figures (traced runs)
}

func (r *run) check(ok bool, format string, args ...interface{}) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) setE2E(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }

func (r *run) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// workloads maps each workload name to its driver.
var workloads = map[string]func(*run) error{
	"drain-remote": drainRemote,
	"serve-live":   serveLive,
}

func main() {
	work := flag.String("work", "", "directory for fixtures and scratch stores (required)")
	workload := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "1: per-layer run (half untraced, half traced)")
	buildOnly := flag.String("build-fixture", "", "build the named archive fixture and exit")
	flag.Parse()
	if *work == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -work is required")
		os.Exit(2)
	}
	if *buildOnly != "" {
		if err := buildFixture(*work, *buildOnly); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds/-trace\n", *workload)
		os.Exit(2)
	}
	// Every actor of a workload (worker, primary, server, client,
	// writer) runs in this one process, and all of its Go code runs on
	// one processor. Spread over the two vCPUs of a shared cloud VM, the
	// hand-offs between them (11k loopback requests per drain-remote
	// worker cycle) made the time follow the host's load: the worker's
	// cycle measured 1.8 s to 2.7 s, against 1.8 s to 1.9 s on one
	// processor. The kernel's share of the work still runs on any CPU.
	runtime.GOMAXPROCS(1)
	res, err := execute(*work, *workload, drive, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and assembles its result line.
func execute(work, name string, drive func(*run) error, seed uint64, seconds float64, traced bool) (*result, error) {
	if err := ensureFixtures(work); err != nil {
		return nil, err
	}
	// Deleting a scratch store frees thousands of files at once, so the
	// file system is flushed before measuring and after the deletion.
	dir := filepath.Join(work, "runs", strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	syscall.Sync()
	defer syscall.Sync()
	defer os.RemoveAll(dir)
	r := &run{
		work: work, dir: dir, rng: simrand.New(seed),
		seconds: seconds, traced: traced,
		e2e: make(map[string]metric), layer: make(map[string]metric),
	}
	if err := drive(r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %s\n", name, p)
	}
	if len(r.setup) > 0 {
		r.setE2E("setup_s", median(r.setup), "s")
	}
	r.setE2E("max_rss_mb", maxRSSMB(), "MB")
	res := &result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.e2e,
	}
	if traced {
		if err := checkSpans(r.tr.closed()); err != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: span invariant violated: %v\n", name, err)
		}
		if err := r.tr.writeSpans(os.Stderr); err != nil {
			return nil, err
		}
		res.Metrics = r.layerMetrics()
	}
	return res, nil
}

// Set-up repeats at least minSetups times, and while the repetitions so
// far took less than setupBudget, up to maxSetups; setup_s is the
// median, so a cheap set-up gets enough samples to be steady.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second
)

// timeSetup runs set-up repeatedly, keeping the last instance and
// tearing the others down, and records each duration.
func timeSetup[T any](r *run, up func() (T, error), down func(T) error) (T, error) {
	var spent time.Duration
	for i := 1; ; i++ {
		runtime.GC()
		debug.FreeOSMemory()
		t0 := wallNow()
		v, err := up()
		if err != nil {
			return v, err
		}
		d := since(t0)
		spent += d
		r.setup = append(r.setup, d.Seconds())
		if i >= maxSetups || (i >= minSetups && spent >= setupBudget) {
			return v, nil
		}
		if err := down(v); err != nil {
			return v, err
		}
	}
}

// halves splits the measurement time: all of it untraced, or half
// untraced and half traced.
func (r *run) halves() []bool {
	if r.traced {
		return []bool{false, true}
	}
	return []bool{false}
}

// window returns how long one half measures.
func (r *run) window() time.Duration {
	d := time.Duration(r.seconds * float64(time.Second))
	if r.traced {
		d /= 2
	}
	return d
}

// startTrace begins the traced half.
func (r *run) startTrace() *tracer {
	r.tr = newTracer(wallNow)
	return r.tr
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
