package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"time"
	"unsafe"

	"delta"
	"delta/internal/chip"
	"delta/internal/experiments"
	"delta/internal/scenario"
	"delta/internal/telemetry"
	"delta/internal/trace"
	"delta/internal/workloads"
)

// spec is one benchmark workload: a DELTA simulation of a Table IV mix.
type spec struct {
	name  string
	mix   string
	cores int
	// ff seeds warm-up analytically (chip.FastForward) instead of simulating
	// it.
	ff bool
	// resume runs under the churn scenario through the public facade and
	// suspends/resumes the job at fixed quantum boundaries, the delta-served
	// suspend path.
	resume bool
}

var specs = []spec{
	{name: "delta-w2-16-sim", mix: "w2", cores: 16},
	{name: "delta-w13-64-ff", mix: "w13", cores: 64, ff: true},
	{name: "delta-w6-16-resume", mix: "w6", cores: 16, resume: true},
}

func specByName(name string) (spec, bool) {
	for _, w := range specs {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// suspendSamples is how many telemetry samples (16 quanta each) a resume job
// simulates between suspensions: 640 quanta per segment.
const suspendSamples = 40

// scale returns the campaign scale the workload runs at for seed: the paper
// experiments' compression, or a few thousand quanta for the smoke test.
func (w spec) scale(seed uint64, tiny bool) experiments.Scale {
	s := experiments.DefaultScale()
	if w.cores > 16 {
		s = s.For64()
	}
	if tiny {
		s.Warmup, s.Budget = 20_000, 10_000
	}
	s.Seed = seed
	s.FastForward = w.ff
	return s
}

func suspendEvery(tiny bool) int {
	if tiny {
		return 2
	}
	return suspendSamples
}

// snapCycle is one suspend/resume round trip through the snapshot layer.
type snapCycle struct {
	encode, decode, restore time.Duration
	bytes                   int
}

func (c snapCycle) total() time.Duration { return c.encode + c.decode + c.restore }

// setupSpans splits set-up into its public calls.
type setupSpans struct {
	build, load, fastForward time.Duration
}

func (sp setupSpans) total() time.Duration { return sp.build + sp.load + sp.fastForward }

// jobResult is what one job measured.
type jobResult struct {
	setup setupSpans
	// run is host time inside Run/RunCtx; total is the whole job from build
	// to results, suspend/resume cycles included, heap probe excluded.
	run, total time.Duration
	// instructions retired by every simulated core, warm-up included.
	instructions uint64
	heapBytes    uint64
	allocBytes   uint64
	snaps        []snapCycle
	fingerprint  string
	// chip is the simulated chip at the end of the job, for counters.
	chip *chip.Chip
}

// digest shortens a chip fingerprint (a multi-kilobyte text dump) to the
// value pinned in pins.json.
func digest(fp string) string {
	sum := sha256.Sum256([]byte(fp))
	return hex.EncodeToString(sum[:])
}

// retired sums the instructions every core has retired so far.
func retired(c *chip.Chip) uint64 {
	var n uint64
	for _, t := range c.Tiles {
		n += t.Core.Instructions()
	}
	return n
}

// heapProbe forces a collection and reports the live heap and how long the
// probe took, so callers can keep it out of job time.
func heapProbe() (live uint64, took time.Duration) {
	t0 := time.Now()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, time.Since(t0)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// buildChip assembles the workload's chip the way the figure campaigns do
// (experiments.Scale.RunMix): chip.New, then the mix's generators, then
// fast-forward seeding when the workload asks for it.
func buildChip(w spec, s experiments.Scale) (*chip.Chip, setupSpans) {
	var sp setupSpans
	t0 := time.Now()
	c := chip.New(s.ChipConfig(w.cores), s.NewPolicy(string(delta.PolicyDelta)))
	t1 := time.Now()
	for i, g := range workloads.MixByName(w.mix).Generators(w.cores, s.Seed) {
		c.SetWorkload(i, g, true)
	}
	t2 := time.Now()
	sp.build, sp.load = t1.Sub(t0), t2.Sub(t1)
	if s.FastForward {
		c.FastForward(s.Warmup)
		sp.fastForward = time.Since(t2)
	}
	return c, sp
}

// churnBuild is the scenario executor's generator factory, with the seed
// derivation the facade and the churn campaign use for arrivals.
func churnBuild(seed uint64) scenario.BuildFunc {
	return func(coreID int, app string) (trace.Generator, error) {
		return workloads.ByName(app).Spec.Build(seed*1000003 + uint64(coreID)*7919 + 17), nil
	}
}

// runChip runs one uninterrupted job on a chip built by buildChip. A non-nil
// tracer observes every quantum boundary. For the resume workload it runs the
// churn scenario without suspending, which the pinned fingerprint says must
// end in the same state as the suspended job.
func runChip(w spec, s experiments.Scale, qt *quantumTracer) jobResult {
	var r jobResult
	a0 := totalAlloc()
	t0 := time.Now()
	c, sp := buildChip(w, s)
	r.setup = sp
	live, probe := heapProbe()
	r.heapBytes = live
	var hook chip.BoundaryHook
	if w.resume {
		hook = scenario.NewExecutor(experiments.ChurnScenario(), c, churnBuild(s.Seed))
	}
	if qt != nil {
		hook = qt.attach(c, hook, w, s)
	}
	if hook != nil {
		c.SetBoundaryHook(hook)
	}
	t1 := time.Now()
	c.Run(s.Warmup, s.Budget)
	r.run = time.Since(t1)
	r.instructions = retired(c)
	r.fingerprint = digest(c.Fingerprint())
	r.total = time.Since(t0) - probe
	r.allocBytes = totalAlloc() - a0
	r.chip = c
	return r
}

// suspender is a telemetry recorder that cancels the running segment every
// `every` chip-wide samples, so RunCtx stops at a quantum boundary.
type suspender struct {
	telemetry.Nop
	every, n int
	cancel   context.CancelFunc
}

func (s *suspender) Sample(x telemetry.Sample) {
	if x.Tile != telemetry.ChipWide {
		return
	}
	if s.n++; s.n%s.every == 0 {
		s.cancel()
	}
}

// simChip reads the facade's chip, which the public API does not expose, so
// the benchmark can count retired instructions. It only reads.
func simChip(sim *delta.Simulator) *chip.Chip {
	f := reflect.ValueOf(sim).Elem().FieldByName("chip")
	if !f.IsValid() || f.Type() != reflect.TypeOf((*chip.Chip)(nil)) {
		panic("perfbench: delta.Simulator has no chip field")
	}
	return *(**chip.Chip)(unsafe.Pointer(f.UnsafeAddr()))
}

// newFacade builds and loads the resume workload through the public facade.
func newFacade(w spec, s experiments.Scale, opts ...delta.Option) (*delta.Simulator, setupSpans, error) {
	t0 := time.Now()
	sim, err := delta.New(append([]delta.Option{delta.WithCores(w.cores), delta.WithSeed(s.Seed),
		delta.WithWarmup(s.Warmup), delta.WithBudget(s.Budget),
		delta.WithScenario(experiments.ChurnScenario())}, opts...)...)
	if err != nil {
		return nil, setupSpans{}, err
	}
	t1 := time.Now()
	if err := sim.LoadMixE(w.mix); err != nil {
		return nil, setupSpans{}, err
	}
	return sim, setupSpans{build: t1.Sub(t0), load: time.Since(t1)}, nil
}

// runResume is one job of the resume workload through the public facade:
// New and LoadMix, then RunCtx segments cut by the suspender, each followed
// by Snapshot+Encode, DecodeSnapshot and Restore.
func runResume(w spec, s experiments.Scale, tiny bool) (jobResult, error) {
	var r jobResult
	a0 := totalAlloc()
	t0 := time.Now()
	sus := &suspender{every: suspendEvery(tiny)}
	sim, sp, err := newFacade(w, s, delta.WithRecorder(sus))
	if err != nil {
		return r, err
	}
	r.setup = sp
	live, probe := heapProbe()
	r.heapBytes = live
	for {
		ctx, cancel := context.WithCancel(context.Background())
		sus.cancel = cancel
		t := time.Now()
		_, err := sim.RunCtx(ctx)
		r.run += time.Since(t)
		cancel()
		if err == nil {
			break
		}
		if !errors.Is(err, delta.ErrCanceled) {
			return r, err
		}
		var cy snapCycle
		if sim, cy, err = suspendResume(sim, sus); err != nil {
			return r, err
		}
		r.snaps = append(r.snaps, cy)
	}
	r.chip = simChip(sim)
	r.instructions = retired(r.chip)
	r.fingerprint = digest(sim.Fingerprint())
	r.total = time.Since(t0) - probe
	r.allocBytes = totalAlloc() - a0
	return r, nil
}

// suspendResume is one delta-served suspend/resume cycle.
func suspendResume(sim *delta.Simulator, rec delta.Recorder) (*delta.Simulator, snapCycle, error) {
	var cy snapCycle
	t0 := time.Now()
	snap, err := sim.Snapshot()
	if err != nil {
		return nil, cy, err
	}
	data, err := snap.Encode()
	if err != nil {
		return nil, cy, err
	}
	t1 := time.Now()
	dec, err := delta.DecodeSnapshot(data)
	if err != nil {
		return nil, cy, err
	}
	t2 := time.Now()
	next, err := delta.Restore(dec, delta.WithRecorder(rec))
	if err != nil {
		return nil, cy, err
	}
	cy = snapCycle{encode: t1.Sub(t0), decode: t2.Sub(t1), restore: time.Since(t2), bytes: len(data)}
	return next, cy, nil
}

// runJob runs one timed job of the workload, turning a panic into an error
// so that it counts as a failed job.
func runJob(w spec, seed uint64, tiny bool) (jobResult, error) {
	return guard(func() (jobResult, error) {
		s := w.scale(seed, tiny)
		if w.resume {
			return runResume(w, s, tiny)
		}
		return runChip(w, s, nil), nil
	})
}

// setupOnly builds and loads the workload without running it: the extra
// set-up samples each run takes.
func setupOnly(w spec, seed uint64, tiny bool) (time.Duration, error) {
	s := w.scale(seed, tiny)
	var sp setupSpans
	if w.resume {
		var err error
		if _, sp, err = newFacade(w, s); err != nil {
			return 0, err
		}
	} else {
		_, sp = buildChip(w, s)
	}
	return sp.total(), nil
}
