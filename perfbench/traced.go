package main

import (
	"time"

	"delta"
	"delta/internal/cache"
	"delta/internal/chip"
	"delta/internal/core"
	"delta/internal/experiments"
	"delta/internal/trace"
	"delta/internal/umon"
	"delta/internal/workloads"
)

// quantumTracer splits a run's host time at every quantum boundary: as a
// boundary hook it closes the chip.advance span (cores plus event drain),
// and as the every-quantum checkpoint it closes the policy.tick span
// (scenario events, policy tick and bookkeeping). It also notes when the
// last initially loaded core finished warming up.
type quantumTracer struct {
	inner chip.BoundaryHook
	c     *chip.Chip

	last, mark     time.Time
	advance, tick  time.Duration
	warmup         uint64
	cold           []int
	start, warmEnd time.Time
}

// attach wires the tracer into c, wrapping inner (the scenario executor or
// nil), and returns the hook to install. Cores seeded by fast-forward start
// warm; the rest warm by simulation.
func (q *quantumTracer) attach(c *chip.Chip, inner chip.BoundaryHook, w spec, s experiments.Scale) chip.BoundaryHook {
	q.inner, q.c, q.warmup = inner, c, s.Warmup
	for i, g := range workloads.MixByName(w.mix).Generators(w.cores, s.Seed) {
		if _, seeded := trace.LocalityOf(g); !(s.FastForward && seeded) {
			q.cold = append(q.cold, i)
		}
	}
	c.SetCheckpoint(1, q.checkpoint)
	q.start = time.Now()
	q.last, q.warmEnd = q.start, q.start
	return q
}

func (q *quantumTracer) OnBoundary(now uint64) {
	t := time.Now()
	q.advance += t.Sub(q.last)
	q.mark = t
	if len(q.cold) > 0 {
		// A core counts as warm once it retired its warm-up window, or once
		// its initial workload left the tile (a scenario departure).
		keep := q.cold[:0]
		for _, i := range q.cold {
			if q.c.HasWorkload(i) && q.c.Tiles[i].Core.Instructions() < q.warmup {
				keep = append(keep, i)
			}
		}
		if q.cold = keep; len(keep) == 0 {
			q.warmEnd = t
		}
	}
	if q.inner != nil {
		q.inner.OnBoundary(now)
	}
}

func (q *quantumTracer) Pending(now uint64) bool {
	return q.inner != nil && q.inner.Pending(now)
}

func (q *quantumTracer) checkpoint(uint64) {
	t := time.Now()
	q.tick += t.Sub(q.mark)
	q.last = t
}

// replayDraws is the access stream length each replay regenerates, split
// evenly across the workload's cores.
const replayDraws = 2_000_000

// replayTimes are per-operation host costs of single layers, measured on
// standalone instances of the chip's geometry fed by the workload's own
// regenerated access stream (generators depend only on the seed).
type replayTimes struct {
	next, l1, l2, llc, umon float64 // ns per operation
}

// replay times each layer in turn: the generators draw the stream, L1s of
// the chip's geometry look it up (inserting on a miss), L2s take the L1
// misses, and LLC banks and UMONs take the L2 misses.
func replay(w spec, s experiments.Scale, c *chip.Chip, tiny bool) replayTimes {
	draws := replayDraws
	if tiny {
		draws = 20_000
	}
	per := draws / w.cores
	cfg := c.Cfg
	gens := workloads.MixByName(w.mix).Generators(w.cores, s.Seed)
	type access struct {
		line  uint64
		write bool
	}
	stream := make([][]access, w.cores)
	var rt replayTimes
	t0 := time.Now()
	for i, g := range gens {
		base := uint64(i+1) << 40
		buf := make([]access, per)
		for k := range buf {
			a := g.Next()
			buf[k] = access{base + a.Line, a.Write}
		}
		stream[i] = buf
	}
	rt.next = nsPer(time.Since(t0), w.cores*per)

	// level runs one cache level over every core's stream and returns the
	// misses, which are the next level's input. A first pass fills the
	// cache and records the misses; the timed second pass replays the same
	// stream on the warm cache.
	level := func(mk func() *cache.Cache, owner func(core int) int) ([][]access, float64) {
		misses := make([][]access, w.cores)
		var took time.Duration
		n := 0
		for i, in := range stream {
			ca := mk()
			pass := func(out []access) []access {
				for _, a := range in {
					set := ca.SetIndex(a.line)
					if _, hit := ca.LookupIdx(set, a.line, a.write); !hit {
						ca.InsertIdx(set, a.line, owner(i), a.write, ca.AllMask())
						if out != nil {
							out = append(out, a)
						}
					}
				}
				return out
			}
			misses[i] = pass(make([]access, 0, len(in)/4))
			t := time.Now()
			pass(nil)
			took += time.Since(t)
			n += len(in)
		}
		return misses, nsPer(took, n)
	}
	private := func(int) int { return cache.NoOwner }
	stream, rt.l1 = level(func() *cache.Cache {
		return cache.New(cache.Config{SizeBytes: cfg.L1Bytes, Ways: cfg.L1Ways})
	}, private)
	stream, rt.l2 = level(func() *cache.Cache {
		return cache.New(cache.Config{SizeBytes: cfg.L2Bytes, Ways: cfg.L2Ways})
	}, private)
	llcMisses := stream
	_, rt.llc = level(func() *cache.Cache {
		return cache.New(cache.Config{SizeBytes: cfg.LLCBytes, Ways: cfg.LLCWays,
			TrackOwners: true, Partitions: w.cores})
	}, func(core int) int { return core })

	var took time.Duration
	n := 0
	for _, in := range llcMisses {
		m := umon.New(umon.Config{MaxWays: cfg.UmonMaxWays, Granularity: cfg.UmonGranularity,
			SetBits: c.LLCSetBits(), SampleEvery: cfg.UmonSampleEvery})
		for _, a := range in {
			m.Access(a.line)
		}
		t := time.Now()
		for _, a := range in {
			m.Access(a.line)
		}
		took += time.Since(t)
		n += len(in)
	}
	rt.umon = nsPer(took, n)
	return rt
}

func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// layerCounts reads the deterministic per-layer work counts of a finished
// chip from the layers' public statistics.
func layerCounts(c *chip.Chip, m metricSet) {
	var l1, l2, llc cache.Stats
	var instr, draws, longMiss, stall, umonAcc uint64
	for _, t := range c.Tiles {
		l1 = addStats(l1, t.L1.Stats)
		l2 = addStats(l2, t.L2.Stats)
		llc = addStats(llc, t.LLC.Stats)
		st := t.Core.Stats
		instr += st.Instructions
		draws += st.MemAccesses // one generator draw per memory access
		longMiss += st.LongMisses
		stall += st.MissStall
		umonAcc += t.LLCAccesses // every L2 miss feeds the tile's UMON
	}
	m.set("chip.quanta", float64(c.Now()/c.Cfg.Quantum))
	m.set("chip.sim_cycles", float64(c.Now()))
	m.set("chip.geomean_ipc", delta.Result{Cores: c.Results()}.GeoMeanIPC())
	m.set("chip.inval_lines", float64(c.Stats.InvalLines))
	if d, ok := c.Policy().(*core.Delta); ok {
		m.set("core.challenges_sent", float64(d.Stats.ChallengesSent))
		m.set("core.challenges_won", float64(d.Stats.ChallengesWon))
		m.set("core.intra_moves", float64(d.Stats.IntraMoves))
	}
	m.set("trace.draws", float64(draws))
	m.set("cpu.instructions", float64(instr))
	m.set("cpu.long_misses", float64(longMiss))
	m.set("cpu.miss_stall_cycles", float64(stall))
	m.set("cache.l1.accesses", float64(l1.Accesses))
	m.set("cache.l1.hits", float64(l1.Hits))
	m.set("cache.l2.accesses", float64(l2.Accesses))
	m.set("cache.l2.hits", float64(l2.Hits))
	m.set("cache.llc.accesses", float64(llc.Accesses))
	m.set("cache.llc.hits", float64(llc.Hits))
	m.set("cache.llc.hit_ratio", float64(llc.Hits)/float64(llc.Accesses))
	m.set("cache.llc.evictions", float64(llc.Evictions))
	m.set("cache.invals", float64(l1.Invals+l2.Invals+llc.Invals))
	m.set("umon.accesses", float64(umonAcc))
	m.set("noc.messages", float64(c.Net.Stats.Total()))
	m.set("noc.hops", float64(c.Net.Stats.TotalHops()))
	m.set("noc.control_frac", c.Net.Stats.ControlFraction())
	mt := c.Mem.TotalStats()
	m.set("mem.requests", float64(mt.Requests))
	m.set("mem.queue_delay_cycles", float64(mt.QueueDelay))
}

func addStats(a, b cache.Stats) cache.Stats {
	a.Accesses += b.Accesses
	a.Hits += b.Hits
	a.Evictions += b.Evictions
	a.Invals += b.Invals
	return a
}
