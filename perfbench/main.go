// Command perfbench is the repository benchmark. It builds one workload's
// system in-process from a seed, drives it as a closed loop for a fixed
// time, verifies every answer, and prints one JSON line of metrics: the
// end-to-end metrics, or with -trace 1 the per-layer metrics of a traced
// run. See NOTES.md for the workloads and what each metric should move.
//
//	bash perfbench/run.sh --workload phj --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times an untraced run sets its system up; it
// reports the median and measures on the last one.
const setupRepeats = 3

// fixture is one workload's generated inputs and oracle answers. Building
// it is the benchmark's own work and is not part of setup_s.
type fixture interface {
	// start builds and warms up the system under test.
	start(tr *tracer) (system, error)
	// shape is the inputs the traced run's layer ladder replays.
	shape() shape
}

// workloads builds each workload's fixture from a seed.
var workloads = map[string]func(seed int64) (fixture, error){
	"phj":           func(seed int64) (fixture, error) { return newPHJFixture(seed) },
	"serve":         func(seed int64) (fixture, error) { return newServeFixture(seed) },
	"cluster-spill": func(seed int64) (fixture, error) { return newClusterFixture(seed) },
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func parseFlags(args []string) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "directory for run records and spans (none when empty)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want %s)", cfg.workload, strings.Join(workloadNames(), " | "))
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("-seconds %d: need at least 1", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	cfg.trace = trace == 1
	return cfg, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(2)
	}
	if err := execute(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
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

// record is the run record written beside the spans: the result plus what
// is needed to tell a noisy machine from a noisy benchmark.
type record struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  int       `json:"seconds"`
	Trace    bool      `json:"trace"`
	Host     hostInfo  `json:"host"`
	SetupS   []float64 `json:"setup_s"`
	// Primary, Writes and WallS cover the windows the timings come from.
	Primary int     `json:"primary_ops"`
	Writes  int     `json:"write_ops"`
	WallS   float64 `json:"wall_s"`
	// Windows is how many windows the loop ran; QuietWindows how many lost
	// at most maxStealShare to steal. StealFallback: too few quiet windows,
	// so the timings come from all of them.
	Windows       int    `json:"windows"`
	QuietWindows  int    `json:"quiet_windows"`
	StealFallback bool   `json:"steal_fallback"`
	Result        result `json:"result"`
	// SelfMS is each span name's median self time in a traced run: its
	// duration minus what its child spans cover.
	SelfMS map[string]float64 `json:"self_ms,omitempty"`
}

func execute(cfg config, stdout io.Writer) error {
	fx, err := workloads[cfg.workload](cfg.seed)
	if err != nil {
		return fmt.Errorf("prepare %s: %w", cfg.workload, err)
	}
	var tr *tracer
	repeats := setupRepeats
	if cfg.trace {
		tr = newTracer()
		repeats = 1
	}
	var sys system
	var setups []float64
	for range repeats {
		if sys != nil {
			sys.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if sys, err = fx.start(tr); err != nil {
			return fmt.Errorf("set up %s: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sys.close()

	runtime.GC()
	host := newHostInfo()
	wins := closedLoop(sys, time.Duration(cfg.seconds)*time.Second, host.NumCPU, tr)
	sum, err := summarize(wins, host.NumCPU)
	if err != nil {
		return err
	}
	host.StealTicks = sum.steal
	res := result{Correct: sum.correct, Attempted: sum.attempted, Failed: sum.failed}
	if cfg.trace {
		res.Metrics, err = perLayer(fx, sys, tr, sum)
	} else {
		res.Metrics, err = endToEnd(sum, setups)
	}
	if err != nil {
		return err
	}
	if cfg.out != "" {
		if err := writeRecord(cfg, record{
			Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
			Host: host, SetupS: setups, Primary: sum.primary, Writes: sum.writes,
			Windows: len(wins), QuietWindows: sum.quiet, StealFallback: sum.fallback,
			WallS: sum.wall.Seconds(), Result: res, SelfMS: selfByName(tr.snapshot()),
		}, tr); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d primary + %d write ops timed in %.1fs (%d of %d windows quiet), ok_ratio %.4f, nproc %d, GOMAXPROCS %d, %s, steal %d ticks\n",
		cfg.workload, cfg.seed, sum.primary, sum.writes, sum.wall.Seconds(), sum.quiet, len(wins), sum.okRatio,
		host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.StealTicks)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

func writeRecord(cfg config, rec record, tr *tracer) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
	if cfg.trace {
		name += "-trace"
	}
	base := filepath.Join(cfg.out, name)
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if tr != nil {
		return tr.write(base + ".spans.json")
	}
	return nil
}

// summary is the measured loop, reduced. Correctness counts cover every
// operation; timings and per-op resource use cover the timed windows.
type summary struct {
	attempted, failed int
	okRatio           float64
	correct           bool
	steal             int64 // over the whole loop
	quiet             int   // quiet windows
	fallback          bool  // timings from all windows: too few quiet ones

	primary, writes int           // in the timed windows
	wall            time.Duration // of the timed windows
	primaryMS       []float64     // latency per primary op; failures count as the whole timed wall
	writeMS         []float64
	tracedMS        []float64 // primary latencies of traced ops (traced runs)
	untracedMS      []float64
	clientMS        []float64 // primary op latency outside calls into the system
	simMS           float64
	spillBytes      float64 // per primary op
	spilledParts    float64
	opsPerS         float64
	cpuMSPerOp      float64
	allocMBPerOp    float64
	gcPerOp         float64
	gcPauseMSPerOp  float64
}

// summarize reduces the loop's windows. Timings come from the quiet
// windows when those hold minOps primary and minOps write operations, else
// from all windows.
func summarize(wins []window, ncpu int) (summary, error) {
	var s summary
	var sts []status
	var quiet []window
	okAll := 0
	qPrimary, qWrites := 0, 0
	for _, w := range wins {
		s.steal += w.steal()
		for _, o := range w.outs {
			sts = append(sts, o.st)
			if o.st == statusOK {
				okAll++
			}
		}
		if !w.quiet(ncpu) {
			continue
		}
		quiet = append(quiet, w)
		for _, o := range w.outs {
			if o.kind == opPrimary {
				qPrimary++
			} else {
				qWrites++
			}
		}
	}
	if len(sts) == 0 {
		return s, errors.New("no operation completed")
	}
	s.attempted = len(sts)
	s.okRatio = okRatio(sts)
	s.failed = len(sts) - okAll
	s.correct = s.failed == 0
	s.quiet = len(quiet)
	timed := quiet
	if qPrimary < minOps || qWrites < minOps {
		timed, s.fallback = wins, true
	}

	var cpu time.Duration
	var alloc, pauses uint64
	var numGC uint32
	for _, w := range timed {
		s.wall += w.wall
		cpu += w.after.cpu - w.before.cpu
		alloc += w.after.alloc - w.before.alloc
		numGC += w.after.numGC - w.before.numGC
		pauses += w.after.pauses - w.before.pauses
	}
	whole := float64(s.wall) / 1e6
	var simSum float64
	var n, ok, simN int
	for _, w := range timed {
		for _, o := range w.outs {
			n++
			lat := o.ms
			if o.st != statusOK {
				lat = whole // a failed op misses every latency limit
			} else {
				ok++
			}
			if o.kind == opWrite {
				s.writes++
				s.writeMS = append(s.writeMS, lat)
				continue
			}
			s.primary++
			s.primaryMS = append(s.primaryMS, lat)
			if o.st != statusOK {
				continue
			}
			simSum += o.simMS
			simN++
			s.spillBytes += float64(o.spillBytes)
			s.spilledParts += float64(o.spilledParts)
			s.clientMS = append(s.clientMS, o.ms-o.sysMS)
			if o.traced {
				s.tracedMS = append(s.tracedMS, o.ms)
			} else {
				s.untracedMS = append(s.untracedMS, o.ms)
			}
		}
	}
	if n == 0 {
		return s, errors.New("no operation in the timed windows")
	}
	if simN > 0 {
		s.simMS = simSum / float64(simN)
		s.spillBytes /= float64(simN)
		s.spilledParts /= float64(simN)
	}
	s.opsPerS = float64(ok) / s.wall.Seconds()
	s.cpuMSPerOp = float64(cpu) / 1e6 / float64(n)
	s.allocMBPerOp = float64(alloc) / 1e6 / float64(n)
	s.gcPerOp = float64(numGC) / float64(n)
	s.gcPauseMSPerOp = float64(pauses) / 1e6 / float64(n)
	return s, nil
}

// quantile reports a percentile or explains why it would not be valid.
func quantile(name string, xs []float64, q float64) (float64, error) {
	v, ok := percentile(xs, q)
	if !ok {
		return 0, fmt.Errorf("%s: %d samples leave fewer than %d beyond the %.0fth percentile", name, len(xs), minBeyond, q*100)
	}
	return v, nil
}

func endToEnd(s summary, setups []float64) (map[string]metric, error) {
	m := map[string]metric{
		"ops_per_s":       {s.opsPerS, "1/s"},
		"ok_ratio":        {s.okRatio, "ratio"},
		"cpu_ms_per_op":   {s.cpuMSPerOp, "ms"},
		"alloc_mb_per_op": {s.allocMBPerOp, "MB"},
		"sim_ms_per_op":   {s.simMS, "ms"},
		"setup_s":         {median(setups), "s"},
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m["peak_rss_mb"] = metric{rss, "MB"}
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"op_p50_ms", s.primaryMS, 0.5}, {"op_p90_ms", s.primaryMS, 0.9},
		{"write_p50_ms", s.writeMS, 0.5}, {"write_p90_ms", s.writeMS, 0.9},
	} {
		v, err := quantile(p.name, p.xs, p.q)
		if err != nil {
			return nil, err
		}
		m[p.name] = metric{v, "ms"}
	}
	return m, nil
}
