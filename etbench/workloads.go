package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"etherm/api"
	"etherm/internal/apiconv"
	"etherm/internal/scenario"
)

// workload is one traffic mix. setup runs once per set-up round against a
// fresh server; measure runs the window, the checks and (traced) the
// per-layer accounting against the last round's server.
type workload struct {
	setup   func(ctx context.Context, b *bench) error
	measure func(ctx context.Context, b *bench) error
}

var workloads = map[string]*workload{
	"table2-nominal": jobWorkload(table2),
	"fig7-campaign":  jobWorkload(fig7),
	"rare-subset":    jobWorkload(rareSubset),
	"surrogate-read": surrogateWorkload(),
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// rng returns the deterministic stream of input k under a workload seed.
func rng(seed uint64, k int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(k)))
}

func ptr(v float64) *float64 { return &v }

// Mesh and solve recipes shared by the job specs and the replays.
const (
	table2HMax = 0.7e-3 // Table 2 mesh
	coarseHMax = 0.8e-3 // the bundled presets' mesh
	// rareCriticalK lies between the 0.9- and 0.99-quantiles of the coarse
	// recipe's peak temperature (≈ 448.3 K and ≈ 451.2 K; P(fail) ≈ 0.02),
	// so every subset run with p0 = 0.1 stops after two levels: the level
	// count, and with it the work per job, does not change with the seed.
	rareCriticalK = 449.7
)

var materials = []string{"copper", "gold", "aluminum"}

// coarseScenario is the cheap recipe of the rare-event and surrogate
// workloads: coarse mesh, 10 s / 3 steps, weak coupling with Newton.
func coarseScenario(name string) api.Scenario {
	return api.Scenario{
		Name: name,
		Chip: api.ChipSpec{Preset: "date16-calibrated", HMaxM: coarseHMax},
		Sim:  api.SimSpec{EndTimeS: 10, NumSteps: 3, Coupling: "weak", Nonlinear: "newton"},
	}
}

// jobSpec declares a job workload: its load shape and its generator.
type jobSpec struct {
	name          string
	clients       int
	sampleWorkers int // 0 = deterministic job
	// gen returns job k of the seed's sequence; warmup returns the
	// unmeasured set-up job (same geometry, so it takes the cache miss).
	gen    func(seed uint64, k int) api.Scenario
	warmup func() api.Scenario
	// evals counts the model evaluations a finished job performed.
	evals func(r *api.ScenarioResult) int
	// repeat is the index of a job that repeats job 0's inputs and must
	// return a byte-identical result (0 = no repeat check).
	repeat int
	// replay is the deterministic scenario and option set the per-layer
	// replays time (ensemble = FastOptions, as the campaign evaluations).
	replay   func(seed uint64) api.Scenario
	ensemble bool
	// check adds the workload's own result checks.
	check func(ctx context.Context, b *bench, ops []*jobOp)
}

func (js *jobSpec) batch(sc api.Scenario) *api.Batch {
	b := &api.Batch{Name: js.name, Scenarios: []api.Scenario{sc}}
	if js.sampleWorkers > 0 {
		b.SampleWorkers = js.sampleWorkers
	}
	return b
}

// table2: deterministic Table 2 runs at API default options; job 0 is the
// nominal-calibrated configuration, the rest draw drive, wire material and
// ambient from the seed.
var table2 = &jobSpec{
	name:    "table2-nominal",
	clients: 2,
	gen:     table2Scenario,
	warmup: func() api.Scenario {
		return api.Scenario{
			Name: "warm-up",
			Chip: api.ChipSpec{Preset: "date16-calibrated", HMaxM: table2HMax},
			Sim:  api.SimSpec{EndTimeS: 1, NumSteps: 1},
		}
	},
	evals:  func(*api.ScenarioResult) int { return 1 },
	replay: func(seed uint64) api.Scenario { return table2Scenario(seed, 0) },
	check:  checkNominal,
}

// table2Scenario is job k of a table2-nominal seed.
func table2Scenario(seed uint64, k int) api.Scenario {
	sc := api.Scenario{
		Name: "nominal-calibrated",
		Chip: api.ChipSpec{Preset: "date16-calibrated", HMaxM: table2HMax},
		Sim:  api.SimSpec{EndTimeS: 50, NumSteps: 50},
	}
	if k == 0 {
		return sc
	}
	// The wire material cycles through a seed-shuffled order, so every
	// window holds the same mix of materials (the material moves the CG
	// work of a run by up to 15%); drive and ambient vary in narrow bands.
	order := rng(seed, -1).Perm(len(materials))
	r := rng(seed, k)
	sc.Name = "table2-variant"
	sc.Chip.WireMaterial = materials[order[(k-1)%len(materials)]]
	sc.Chip.DriveScale = 0.95 + 0.1*r.Float64()
	sc.Chip.AmbientK = 293.15 + 10*r.Float64()
	return sc
}

// fig7: streaming Monte Carlo campaigns over the Fig. 7 elongation germ,
// one seed per job.
var fig7 = &jobSpec{
	name:          "fig7-campaign",
	clients:       1,
	sampleWorkers: runtime.NumCPU(),
	gen: func(seed uint64, k int) api.Scenario {
		if k == fig7Repeat {
			k = 0
		}
		sc := fig7Scenario()
		sc.UQ = api.UQSpec{Method: api.MethodMonteCarlo, Samples: 64, Seed: rng(seed, k).Uint64(), Stream: true}
		return sc
	},
	warmup: func() api.Scenario {
		sc := fig7Scenario()
		sc.Sim = api.SimSpec{EndTimeS: 1, NumSteps: 1}
		return sc
	},
	evals:    func(r *api.ScenarioResult) int { return r.Samples },
	repeat:   fig7Repeat,
	replay:   func(uint64) api.Scenario { return fig7Scenario() },
	ensemble: true,
}

const fig7Repeat, rareRepeat = 2, 2

func fig7Scenario() api.Scenario {
	return api.Scenario{
		Name: "fig7-mc",
		Chip: api.ChipSpec{Preset: "date16-calibrated", HMaxM: coarseHMax},
		Sim:  api.SimSpec{EndTimeS: 50, NumSteps: 10},
	}
}

// rareSubset: failure_probability subset-simulation jobs on the coarse
// recipe, one seed per job.
var rareSubset = &jobSpec{
	name:          "rare-subset",
	clients:       1,
	sampleWorkers: runtime.NumCPU(),
	gen: func(seed uint64, k int) api.Scenario {
		if k == rareRepeat {
			k = 0
		}
		sc := coarseScenario("rare-subset")
		sc.UQ = api.UQSpec{
			Mode: api.ModeFailureProbability, Estimator: api.EstimatorSubset,
			LevelSamples: 100, CriticalK: rareCriticalK, Seed: rng(seed, k).Uint64(),
		}
		return sc
	},
	warmup: func() api.Scenario {
		sc := coarseScenario("warm-up")
		sc.Sim.NumSteps = 1
		return sc
	},
	evals: func(r *api.ScenarioResult) int {
		n := 0
		for _, l := range r.RareLevels {
			n += l.Evals
		}
		return n
	},
	repeat:   rareRepeat,
	replay:   func(uint64) api.Scenario { return coarseScenario("rare-replay") },
	ensemble: true,
	check:    checkRare,
}

// jobBatch is job k of the run's sequence. It depends on the seed alone,
// never on the trace mode.
func (b *bench) jobBatch(js *jobSpec, k int) *api.Batch { return js.batch(js.gen(b.seed, k)) }

func jobWorkload(js *jobSpec) *workload {
	return &workload{
		setup: func(ctx context.Context, b *bench) error {
			op := b.runJob(ctx, -1, js.batch(js.warmup()))
			return op.err
		},
		measure: func(ctx context.Context, b *bench) error { return measureJobs(ctx, b, js) },
	}
}

// measureJobs runs the closed loop for the window and reports the job
// workload's metrics and checks.
func measureJobs(ctx context.Context, b *bench, js *jobSpec) error {
	gen := func(k int) *api.Batch { return b.jobBatch(js, k) }
	var before series
	var rt0 runtimeStats
	if b.traced {
		var err error
		if before, err = b.scrape(ctx); err != nil {
			return err
		}
		rt0 = readRuntime()
	}
	rss := startRSS(20 * time.Millisecond)
	cpu0 := cpuTime()
	t0 := time.Now()
	ops := b.jobLoop(ctx, js.clients, t0.Add(b.window), gen)
	last := t0
	for _, op := range ops {
		if op.end.After(last) {
			last = op.end
		}
	}
	cpu := (cpuTime() - cpu0).Seconds()
	rssMB := rss.Stop()
	wall := last.Sub(t0).Seconds()
	var after series
	var rt1 runtimeStats
	if b.traced {
		var err error
		if after, err = b.scrape(ctx); err != nil {
			return err
		}
		rt1 = readRuntime()
	}

	var lat []float64
	var errs []error
	evals := 0
	for _, op := range ops {
		b.attempted++
		if op.err != nil {
			b.failed++
			errs = append(errs, op.err)
			continue
		}
		lat = append(lat, op.latency().Seconds()*1e3)
		evals += js.evals(op.scenario())
	}
	if len(errs) > 0 {
		fmt.Printf("failed jobs: %v\n", errJoin(errs))
	}
	if evals == 0 || wall <= 0 {
		return fmt.Errorf("no job finished in the window (%d attempted)", len(ops))
	}
	p, tv, n, ok := tail(lat)
	fmt.Printf("jobs=%d evals=%d wall=%.3fs latency p50=%.1fms tail p%g=%.1fms (n=%d, ten beyond: %t)\n",
		len(ops), evals, wall, median(lat), p, tv, n, ok)
	if b.traced {
		b.set("trace.latency_p50_ms", median(lat), "ms")
	} else {
		b.set("latency_p50_ms", median(lat), "ms")
		b.set("latency_tail_ms", tv, "ms")
		b.set("evals_per_s", float64(evals)/wall, "1/s")
		b.set("cpu_per_eval_ms", cpu/float64(evals)*1e3, "ms")
		b.set("rss_p90_mb", percentile(rssMB, 90), "MB")
	}

	measured := ops
	if js.repeat > 0 {
		ops = b.completeRepeat(ctx, js, ops, gen)
	}
	if js.check != nil {
		js.check(ctx, b, ops)
	}
	if !b.traced {
		return nil
	}
	jobLayers(b, js, measured, before, after, evals)
	processLayers(b, rt0, rt1, len(measured))
	return replayLayers(ctx, b, js, measured, median(lat))
}

// completeRepeat runs (unmeasured) the jobs up to the repeat index when
// the window closed before it, then checks that the repeat returned a
// result byte-identical to job 0's.
func (b *bench) completeRepeat(ctx context.Context, js *jobSpec, ops []*jobOp, gen func(int) *api.Batch) []*jobOp {
	for k := len(ops); k <= js.repeat; k++ {
		ops = append(ops, b.runJob(ctx, k, gen(k)))
	}
	first, again := ops[0], ops[js.repeat]
	var err error
	switch {
	case first.err != nil || again.err != nil:
		err = fmt.Errorf("job failed: %v / %v", first.err, again.err)
	default:
		a, errA := stableJSON(first.scenario())
		c, errC := stableJSON(again.scenario())
		switch {
		case errA != nil || errC != nil:
			err = fmt.Errorf("encode results: %v / %v", errA, errC)
		case string(a) != string(c):
			err = fmt.Errorf("job %d repeated job 0's seed but returned a different result", js.repeat)
		}
	}
	b.check(js.name+".repeat-identical", err)
	return ops
}

// stableJSON encodes a scenario result without its wall-clock field.
func stableJSON(r *api.ScenarioResult) ([]byte, error) {
	c := *r
	c.ElapsedS = 0
	return json.Marshal(&c)
}

// checkNominal replays job 0 (nominal-calibrated) in-process through the
// scenario engine with the same spec and options; the served t_end_max_k
// must match to 1e-9 K.
func checkNominal(ctx context.Context, b *bench, ops []*jobOp) {
	err := func() error {
		if len(ops) == 0 || ops[0].err != nil {
			return fmt.Errorf("nominal job did not finish")
		}
		in, err := apiconv.BatchToInternal(&api.Batch{Scenarios: []api.Scenario{table2Scenario(b.seed, 0)}})
		if err != nil {
			return err
		}
		res, err := scenario.NewEngine().Run(ctx, in)
		if err != nil {
			return err
		}
		want, got := res.Scenarios[0].TEndMaxK, ops[0].scenario().TEndMaxK
		fmt.Printf("nominal t_end_max_k served=%.12g replay=%.12g\n", got, want)
		if !(math.Abs(got-want) <= 1e-9) {
			return fmt.Errorf("served t_end_max_k %.12g K, in-process replay %.12g K", got, want)
		}
		return nil
	}()
	b.check("table2-nominal.t_end_matches_replay", err)
}

// checkRare requires every subset run to converge with p_fail in (0, 1].
func checkRare(_ context.Context, b *bench, ops []*jobOp) {
	var errs []error
	for _, op := range ops {
		if op.err != nil {
			continue // already counted as a failed operation
		}
		r := op.scenario()
		fmt.Printf("rare job %d: p_fail=%v cov=%.3g levels=%d converged=%t\n", op.k, deref(r.PFail), r.PFailCoV, len(r.RareLevels), r.RareConverged)
		if !r.RareConverged || r.PFail == nil || !(*r.PFail > 0 && *r.PFail <= 1) {
			errs = append(errs, fmt.Errorf("job %d: converged=%t p_fail=%g", op.k, r.RareConverged, deref(r.PFail)))
		}
	}
	b.check("rare-subset.converged", errJoin(errs))
}

func deref(p *float64) float64 {
	if p == nil {
		return math.NaN()
	}
	return *p
}
