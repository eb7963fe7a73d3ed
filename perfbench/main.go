// Command perfbench is the repository's benchmark: it times DELTA
// simulations of fixed paper workloads end to end and, in a separate traced
// run, breaks the time and work down across the simulator's layers. See
// README.md for the workloads, the metrics and how pinned fingerprints are
// maintained.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload delta-w2-16-sim --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"delta"
)

//go:embed pins.json
var pinsJSON []byte

// pins maps workload name, then seed (decimal), to the SHA-256 of the
// simulator's Fingerprint() at the end of the job.
type pins map[string]map[string]string

// setupSamples caps the extra set-ups (build and load, no run) each timed
// run measures before its jobs, so setup_s is a median of many; at least
// minSetupSamples are taken, more only within a tenth of the run's time.
const setupSamples, minSetupSamples = 25, 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

type metricSet map[string]*metric

// units names the unit of every metric the benchmark can print.
var units = map[string]string{
	"job_s":            "s",
	"setup_s":          "s",
	"sim_minstr_per_s": "Minstr/s",
	"heap_mb":          "MB",
	"alloc_mb":         "MB",

	"chip.new_s":                "s",
	"chip.load_s":               "s",
	"chip.warmup_s":             "s",
	"chip.advance_s":            "s",
	"chip.self_s":               "s",
	"chip.quanta":               "count",
	"chip.sim_cycles":           "cycles",
	"chip.geomean_ipc":          "instr/cycle",
	"chip.inval_lines":          "count",
	"policy.tick_s":             "s",
	"policy.tick_us":            "us",
	"core.challenges_sent":      "count",
	"core.challenges_won":       "count",
	"core.intra_moves":          "count",
	"trace.draws":               "count",
	"trace.next_ns":             "ns",
	"cpu.instructions":          "count",
	"cpu.long_misses":           "count",
	"cpu.miss_stall_cycles":     "cycles",
	"cache.l1.accesses":         "count",
	"cache.l1.hits":             "count",
	"cache.l2.accesses":         "count",
	"cache.l2.hits":             "count",
	"cache.llc.accesses":        "count",
	"cache.llc.hits":            "count",
	"cache.llc.hit_ratio":       "frac",
	"cache.llc.evictions":       "count",
	"cache.invals":              "count",
	"cache.l1_ns":               "ns",
	"cache.l2_ns":               "ns",
	"cache.llc_ns":              "ns",
	"umon.accesses":             "count",
	"umon.access_ns":            "ns",
	"noc.messages":              "count",
	"noc.hops":                  "count",
	"noc.control_frac":          "frac",
	"mem.requests":              "count",
	"mem.queue_delay_cycles":    "cycles",
	"snapshot.cycles":           "count",
	"snapshot.bytes":            "bytes",
	"snapshot.encode_s":         "s",
	"snapshot.decode_s":         "s",
	"snapshot.restore_s":        "s",
	"snapshot.resume_ms":        "ms",
	"bench.trace_overhead_frac": "frac",
}

func (m metricSet) set(name string, v float64) { m.setN(name, v, 1) }

func (m metricSet) setN(name string, v float64, n int) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = &metric{Value: v, Unit: u, n: n}
}

// median sets name to the median of vs, remembering the sample count.
func (m metricSet) median(name string, vs []float64) { m.setN(name, median(vs), len(vs)) }

// median returns the median of vs, or 0 when there are none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	k := len(s) / 2
	if len(s)%2 == 0 {
		return (s[k-1] + s[k]) / 2
	}
	return s[k]
}

// report is the benchmark's result line.
type report struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	tiny     bool // smoke-test scale
	pins     pins
}

// bench carries one run's state: its output, the fingerprint check and the
// job tally.
type bench struct {
	out       io.Writer
	opt       options
	w         spec
	simSeed   uint64
	firstFP   string
	attempted int
	failed    int
}

// check compares a job's fingerprint with the pinned value for the seed, or,
// for an unpinned seed, with the first fingerprint of this run.
func (b *bench) check(fp string) error {
	if want, ok := b.pin(); ok {
		if fp != want {
			return fmt.Errorf("fingerprint %.16s does not match pinned %.16s", fp, want)
		}
		return nil
	}
	if b.firstFP == "" {
		b.firstFP = fp
	} else if fp != b.firstFP {
		return fmt.Errorf("fingerprint %.16s differs from this run's first %.16s (unpinned seed)", fp, b.firstFP)
	}
	return nil
}

// tally counts one attempted job and reports whether it succeeded.
func (b *bench) tally(label string, r jobResult, err error) bool {
	b.attempted++
	if err == nil {
		err = b.check(r.fingerprint)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(b.out, "# %s FAILED: %v\n", label, err)
		return false
	}
	fmt.Fprintf(b.out, "# %s: job_s=%.4f setup_s=%.5f run_s=%.4f instr=%d snapshots=%d fingerprint=%.16s\n",
		label, r.total.Seconds(), r.setup.total().Seconds(), r.run.Seconds(),
		r.instructions, len(r.snaps), r.fingerprint)
	return true
}

// pin returns the pinned fingerprint of the run's workload and seed.
func (b *bench) pin() (string, bool) {
	fp, ok := b.opt.pins[b.w.name][strconv.FormatUint(b.simSeed, 10)]
	return fp, ok
}

// timed runs jobs back to back, one at a time, for the run's seconds and
// reports the end-to-end metrics as medians over jobs.
func (b *bench) timed() metricSet {
	start := time.Now()
	m := metricSet{}
	var setups, jobS, mips, heap, alloc []float64
	budget := time.Duration(b.opt.seconds) * time.Second
	for i := 0; i < setupSamples && (i < minSetupSamples || time.Since(start) < budget/10); i++ {
		d, err := guard(func() (time.Duration, error) { return setupOnly(b.w, b.simSeed, b.opt.tiny) })
		if err != nil {
			b.attempted++
			b.failed++
			fmt.Fprintf(b.out, "# setup FAILED: %v\n", err)
			break
		}
		setups = append(setups, d.Seconds())
	}
	runtime.GC()
	for n := 1; ; n++ {
		r, err := runJob(b.w, b.simSeed, b.opt.tiny)
		if b.tally(fmt.Sprintf("job %d", n), r, err) {
			jobS = append(jobS, r.total.Seconds())
			setups = append(setups, r.setup.total().Seconds())
			mips = append(mips, float64(r.instructions)/r.run.Seconds()/1e6)
			heap = append(heap, float64(r.heapBytes)/1e6)
			alloc = append(alloc, float64(r.allocBytes)/1e6)
		}
		// Stop when another job of the median length would overrun.
		next := time.Duration(0)
		if len(jobS) > 0 {
			next = time.Duration(median(jobS) * float64(time.Second))
		}
		if time.Since(start)+next > budget {
			break
		}
	}
	m.median("job_s", jobS)
	m.median("setup_s", setups)
	m.median("sim_minstr_per_s", mips)
	m.median("heap_mb", heap)
	m.median("alloc_mb", alloc)
	return m
}

// traced runs the workload as a timed job and again on a chip with
// per-quantum spans, checks every run ends in the pinned state, and reports
// the per-layer metrics.
func (b *bench) traced() metricSet {
	m := metricSet{}
	s := b.w.scale(b.simSeed, b.opt.tiny)
	base, err := runJob(b.w, b.simSeed, b.opt.tiny)
	if !b.tally("untraced job", base, err) {
		return m
	}
	// The tracing overhead compares like with like: for the resume workload,
	// whose job suspends through the facade, an uninterrupted untraced chip.
	ref := base
	if b.w.resume {
		ref, err = guard(func() (jobResult, error) { return runChip(b.w, s, nil), nil })
		if !b.tally("uninterrupted job", ref, err) {
			return m
		}
	}
	qt := &quantumTracer{}
	r, err := guard(func() (jobResult, error) { return runChip(b.w, s, qt), nil })
	if !b.tally("traced job", r, err) {
		return m
	}
	rt := replay(b.w, s, r.chip, b.opt.tiny)

	layerCounts(r.chip, m)
	quanta := float64(r.chip.Now() / r.chip.Cfg.Quantum)
	m.set("chip.new_s", r.setup.build.Seconds())
	m.set("chip.load_s", r.setup.load.Seconds())
	m.set("chip.warmup_s", (r.setup.fastForward + qt.warmEnd.Sub(qt.start)).Seconds())
	m.set("chip.advance_s", qt.advance.Seconds())
	m.set("policy.tick_s", qt.tick.Seconds())
	m.set("policy.tick_us", qt.tick.Seconds()/quanta*1e6)
	m.set("trace.next_ns", rt.next)
	m.set("cache.l1_ns", rt.l1)
	m.set("cache.l2_ns", rt.l2)
	m.set("cache.llc_ns", rt.llc)
	m.set("umon.access_ns", rt.umon)
	explained := m["trace.draws"].Value*rt.next +
		m["cache.l1.accesses"].Value*rt.l1 +
		m["cache.l2.accesses"].Value*rt.l2 +
		m["cache.llc.accesses"].Value*rt.llc +
		m["umon.accesses"].Value*rt.umon
	m.set("chip.self_s", qt.advance.Seconds()-explained/1e9)

	var enc, dec, res time.Duration
	var bytes, resume []float64
	for _, cy := range base.snaps {
		enc += cy.encode
		dec += cy.decode
		res += cy.restore
		bytes = append(bytes, float64(cy.bytes))
		resume = append(resume, float64(cy.total().Nanoseconds())/1e6)
	}
	m.set("snapshot.cycles", float64(len(base.snaps)))
	m.median("snapshot.bytes", bytes)
	m.median("snapshot.resume_ms", resume)
	m.set("snapshot.encode_s", enc.Seconds())
	m.set("snapshot.decode_s", dec.Seconds())
	m.set("snapshot.restore_s", res.Seconds())
	m.set("bench.trace_overhead_frac", (r.run.Seconds()-ref.run.Seconds())/ref.run.Seconds())
	return m
}

// guard runs f, turning a panic into an error.
func guard[T any](f func() (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

// run executes one benchmark run and writes its report; the last line is
// the JSON result.
func run(out io.Writer, opt options) report {
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	w, _ := specByName(opt.workload)
	b := &bench{out: out, opt: opt, w: w,
		simSeed: delta.Config{Seed: opt.seed}.Canonical().Seed}
	fmt.Fprintf(out, "# host cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	_, pinned := b.pin()
	fmt.Fprintf(out, "# run workload=%s seed=%d sim_seed=%d pinned=%t seconds=%d trace=%t\n",
		w.name, opt.seed, b.simSeed, pinned, opt.seconds, opt.trace)
	var m metricSet
	if opt.trace {
		m = b.traced()
	} else {
		m = b.timed()
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%-26s %16.6f %-11s n=%d\n", name, m[name].Value, m[name].Unit, m[name].n)
	}
	rep := report{Correct: b.failed == 0 && b.attempted > 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
	line, err := json.Marshal(rep)
	if err != nil {
		panic(err) // every value is finite
	}
	fmt.Fprintf(out, "%s\n", line)
	return rep
}

// cpuModel names the host CPU, or "unknown" where /proc/cpuinfo is absent.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	var opt options
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed, passed to the simulator")
	seconds := flag.Int("seconds", 40, "how long the timed run measures")
	traceFlag := flag.Int("trace", 0, "1 for the traced per-layer run")
	pin := flag.String("pin", "", "comma-separated seeds: print pins.json with these seeds re-pinned and exit")
	flag.Parse()
	if err := json.Unmarshal(pinsJSON, &opt.pins); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: pins.json: %v\n", err)
		os.Exit(2)
	}
	if *pin != "" {
		if err := repin(os.Stdout, opt.pins, *pin); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := specByName(*workload); !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	opt.workload, opt.seed, opt.seconds, opt.trace = *workload, *seed, *seconds, *traceFlag == 1
	if rep := run(os.Stdout, opt); !rep.Correct {
		os.Exit(1)
	}
}

// repin runs every workload once per seed, both as its benchmark job and as
// an uninterrupted chip run, and prints pins.json with those seeds set. The
// two runs must agree: for the resume workload this is the check that
// suspending and resuming leaves the final state unchanged.
func repin(out io.Writer, p pins, seedList string) error {
	for _, f := range strings.Split(seedList, ",") {
		seed, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("seed %q: %w", f, err)
		}
		seed = delta.Config{Seed: seed}.Canonical().Seed
		for _, w := range specs {
			job, err := runJob(w, seed, false)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			ref, err := guard(func() (jobResult, error) { return runChip(w, w.scale(seed, false), nil), nil })
			if err != nil {
				return fmt.Errorf("%s seed %d uninterrupted: %w", w.name, seed, err)
			}
			if job.fingerprint != ref.fingerprint {
				return errors.New(w.name + ": job and uninterrupted run disagree; not pinning")
			}
			if p[w.name] == nil {
				p[w.name] = map[string]string{}
			}
			p[w.name][strconv.FormatUint(seed, 10)] = job.fingerprint
			fmt.Fprintf(os.Stderr, "pinned %s seed %d: %.16s\n", w.name, seed, job.fingerprint)
		}
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}
