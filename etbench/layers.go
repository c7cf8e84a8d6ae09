package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"etherm/api"
	"etherm/internal/apiconv"
	"etherm/internal/core"
	"etherm/internal/fit"
	"etherm/internal/jobstore"
	"etherm/internal/scenario"
	"etherm/internal/solver"
	"etherm/internal/sparse"
	"etherm/internal/stats"
	"etherm/internal/surrogate"
)

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them on every workload; a layer that is not on the
// workload's path reads 0 (see README.md for the map of which workload
// exercises which layer).
var perLayer = []struct{ name, unit string }{
	{"server.submit_ms", "ms"},
	{"server.queue_wait_s", "s"},
	{"server.sse_lag_ms", "ms"},
	{"server.query_overhead_us", "us"},
	{"server.http_floor_us", "us"},
	{"http.codec_us", "us"},
	{"jobstore.fsyncs_per_job", "count"},
	{"jobstore.fsync_ms", "ms"},
	{"jobstore.put_us", "us"},
	{"scenario.instantiate_miss_ms", "ms"},
	{"scenario.instantiate_hit_us", "us"},
	{"scenario.cache_hit_ratio", "ratio"},
	{"core.new_simulator_ms", "ms"},
	{"core.run_s", "s"},
	{"core.electric_solve_ms", "ms"},
	{"core.solves_per_eval.electric", "count"},
	{"core.solves_per_eval.thermal", "count"},
	{"core.precond_builds_per_eval", "count"},
	{"core.precond_refreshes_per_eval", "count"},
	{"core.precond_downgrades_per_eval", "count"},
	{"solver.cg_iters_per_eval.electric", "count"},
	{"solver.cg_iters_per_eval.thermal", "count"},
	{"solver.tier_share.electric.ic0", "ratio"},
	{"solver.tier_share.thermal.ict", "ratio"},
	{"solver.ict_build_ms.thermal", "ms"},
	{"solver.mic0_build_ms.thermal", "ms"},
	{"solver.ic0_build_ms.thermal", "ms"},
	{"solver.factor_nnz.thermal", "count"},
	{"solver.apply_us.ict.thermal", "us"},
	{"solver.apply_us.mic0.thermal", "us"},
	{"solver.cg_solve_ms.thermal", "ms"},
	{"sparse.matvec_us", "us"},
	{"sparse.nnz.thermal", "count"},
	{"sparse.matvec_bytes_computed", "B"},
	{"fit.edge_conductances_us", "us"},
	{"uq.fold_us_per_sample", "us"},
	{"uq.sample_gap_ms", "ms"},
	{"rare.levels_per_job", "count"},
	{"rare.evals_per_level", "count"},
	{"rare.accept_mean", "ratio"},
	{"rare.level_s", "s"},
	{"rare.idle_frac", "ratio"},
	{"surrogate.answer_us", "us"},
	{"surrogate.server_query_us", "us"},
	{"process.gc_cpu_frac", "ratio"},
	{"process.alloc_mb_per_op", "MB"},
	{"process.gc_pause_p99_ms", "ms"},
	{"trace.latency_p50_ms", "ms"},
	{"trace.unaccounted_frac", "ratio"},
}

// fillLayers sets every per-layer metric the run did not measure to 0,
// so a traced run always reports the full set.
func fillLayers(b *bench) {
	for _, l := range perLayer {
		if _, ok := b.metrics[l.name]; !ok {
			b.set(l.name, 0, l.unit)
		}
	}
}

// Series names of the server's /metrics exposition.
const (
	seriesFsyncSum  = "etserver_wal_fsync_seconds_sum"
	seriesFsyncCnt  = "etserver_wal_fsync_seconds_count"
	seriesHits      = "etserver_cache_hits_total"
	seriesMisses    = "etserver_cache_misses_total"
	seriesQuerySum  = "etherm_surrogate_query_seconds_sum"
	seriesQueryCnt  = "etherm_surrogate_query_seconds_count"
	seriesPanics    = "etherm_panics_recovered_total"
	seriesStoreErrs = "etserver_store_write_failures_total"
)

var tiers = []string{"deflated", "ict", "mic0", "ic0", "jacobi", "none"}

func solvesSeries(op, tier string) string {
	return fmt.Sprintf("etherm_cg_solves_total{op=%q,tier=%q}", op, tier)
}

func itersSeries(op string) string { return fmt.Sprintf("etherm_cg_iterations_sum{op=%q}", op) }

// solveCounts are the /metrics solver counters over an interval.
type solveCounts struct {
	solves, iters map[string]float64 // by op
	byTier        map[string]float64 // "op/tier"
}

func countSolves(before, after series) solveCounts {
	c := solveCounts{solves: map[string]float64{}, iters: map[string]float64{}, byTier: map[string]float64{}}
	for _, op := range []string{"electric", "thermal"} {
		for _, t := range tiers {
			d := delta(before, after, solvesSeries(op, t))
			c.byTier[op+"/"+t] = d
			c.solves[op] += d
		}
		c.iters[op] = delta(before, after, itersSeries(op))
	}
	return c
}

// jobLayers computes the per-layer metrics a job workload's ops and
// /metrics deltas give.
func jobLayers(b *bench, js *jobSpec, ops []*jobOp, before, after series, evals int) {
	var submit, queue, lag, gaps []float64
	var levels, levelEvals, accept, levelS []float64
	var levelCPU, levelWall float64
	workers := float64(max(1, js.sampleWorkers))
	for _, op := range ops {
		if op.err != nil || op.job == nil {
			continue
		}
		submit = append(submit, op.accepted.Sub(op.start).Seconds()*1e3)
		if op.job.StartedAt != nil {
			queue = append(queue, op.job.StartedAt.Sub(op.job.SubmittedAt).Seconds())
		}
		if op.job.FinishedAt != nil {
			lag = append(lag, op.end.Sub(*op.job.FinishedAt).Seconds()*1e3)
		}
		gaps = append(gaps, diffs(op.samples)...)
		if len(op.levels) > 0 {
			levels = append(levels, float64(len(op.levels)))
			prevAt, prevCPU := op.accepted, time.Duration(0)
			if op.job.StartedAt != nil {
				prevAt = *op.job.StartedAt
			}
			for i, m := range op.levels {
				levelEvals = append(levelEvals, float64(m.lvl.Evals))
				accept = append(accept, m.lvl.Accept)
				w := m.at.Sub(prevAt).Seconds()
				levelS = append(levelS, w)
				if i > 0 { // the first level's CPU start is not sampled
					levelCPU += (m.cpu - prevCPU).Seconds()
					levelWall += w * workers
				}
				prevAt, prevCPU = m.at, m.cpu
			}
		}
	}
	b.set("server.submit_ms", median(submit), "ms")
	b.set("server.queue_wait_s", median(queue), "s")
	b.set("server.sse_lag_ms", median(lag), "ms")
	b.set("uq.sample_gap_ms", median(gaps)*1e3, "ms")
	if len(levels) > 0 {
		b.set("rare.levels_per_job", mean(levels), "count")
		b.set("rare.evals_per_level", mean(levelEvals), "count")
		b.set("rare.accept_mean", mean(accept), "ratio")
		b.set("rare.level_s", median(levelS), "s")
		if levelWall > 0 {
			b.set("rare.idle_frac", 1-levelCPU/levelWall, "ratio")
		}
	}
	n := float64(len(ops))
	fsyncs := delta(before, after, seriesFsyncCnt)
	b.set("jobstore.fsyncs_per_job", fsyncs/n, "count")
	fsyncMean(b, after)
	hits, misses := delta(before, after, seriesHits), delta(before, after, seriesMisses)
	if hits+misses > 0 {
		b.set("scenario.cache_hit_ratio", hits/(hits+misses), "ratio")
	}
	solveLayers(b, countSolves(before, after), float64(evals))
	b.check(js.name+".server_healthy", serverHealthy(before, after))
}

// fsyncMean reports the mean WAL fsync over the server's life: its job
// transitions or surrogate builds, set-up included.
func fsyncMean(b *bench, after series) {
	if c := after[seriesFsyncCnt]; c > 0 {
		b.set("jobstore.fsync_ms", after[seriesFsyncSum]/c*1e3, "ms")
	}
}

// httpFloor reports the p50 round trip of the lightest route (GET
// /healthz) over the workload's client and connection.
func httpFloor(ctx context.Context, b *bench) (float64, error) {
	var floor []float64
	for i := 0; i < 2000; i++ {
		t := time.Now()
		if _, err := b.cl.Health(ctx); err != nil {
			return 0, err
		}
		floor = append(floor, time.Since(t).Seconds()*1e6)
	}
	b.set("server.http_floor_us", median(floor), "us")
	return median(floor), nil
}

// solveLayers reports the /metrics-derived solver work per evaluation.
func solveLayers(b *bench, c solveCounts, evals float64) {
	b.set("core.solves_per_eval.electric", c.solves["electric"]/evals, "count")
	b.set("core.solves_per_eval.thermal", c.solves["thermal"]/evals, "count")
	b.set("solver.cg_iters_per_eval.electric", c.iters["electric"]/evals, "count")
	b.set("solver.cg_iters_per_eval.thermal", c.iters["thermal"]/evals, "count")
	if s := c.solves["electric"]; s > 0 {
		b.set("solver.tier_share.electric.ic0", c.byTier["electric/ic0"]/s, "ratio")
	}
	if s := c.solves["thermal"]; s > 0 {
		b.set("solver.tier_share.thermal.ict", c.byTier["thermal/ict"]/s, "ratio")
	}
}

// serverHealthy fails when the window recovered a panic or failed a store
// write.
func serverHealthy(before, after series) error {
	if d := delta(before, after, seriesPanics); d != 0 {
		return fmt.Errorf("%g panics recovered in the window", d)
	}
	if d := delta(before, after, seriesStoreErrs); d != 0 {
		return fmt.Errorf("%g store writes failed in the window", d)
	}
	return nil
}

// processLayers reports the Go runtime's GC share, allocation volume and
// pause tail over the window.
func processLayers(b *bench, a, c runtimeStats, ops int) {
	if d := c.totalCPU - a.totalCPU; d > 0 {
		b.set("process.gc_cpu_frac", (c.gcCPU-a.gcCPU)/d, "ratio")
	}
	b.set("process.alloc_mb_per_op", (c.allocBytes-a.allocBytes)/1e6/float64(max(1, ops)), "MB")
	b.set("process.gc_pause_p99_ms", gcPauseP99(a, c)*1e3, "ms")
}

// queryLayers splits the surrogate round trip into the server's own query
// time (its histogram mean) and the rest of the HTTP path.
func queryLayers(ctx context.Context, b *bench, st *surrogateState, models []*surrogate.Model, before, after series, latUS []float64) error {
	n := delta(before, after, seriesQueryCnt)
	if n <= 0 {
		return fmt.Errorf("no surrogate query reached the server histogram")
	}
	server := delta(before, after, seriesQuerySum) / n * 1e6
	p50 := median(latUS)
	overhead := p50 - server
	b.set("surrogate.server_query_us", server, "us")
	b.set("server.query_overhead_us", overhead, "us")
	b.check("surrogate-read.server_healthy", serverHealthy(before, after))
	fsyncMean(b, after)
	// The overhead should be the HTTP floor plus the JSON steps below.
	floor, err := httpFloor(ctx, b)
	if err != nil {
		return err
	}
	// Beyond that floor come the JSON steps outside the server's
	// histogram: the SDK encodes the query, the server encodes the answer
	// after its timer stops, and the SDK decodes it. The same pass replays
	// surrogate.Model.Answer on the pool.
	var codec, per []float64
	for _, pq := range st.pool {
		q, err := apiconv.SurrogateQueryToInternal(&pq.q)
		if err != nil {
			return err
		}
		m := models[pq.surrogate]
		a, err := m.Answer(q)
		if err != nil {
			return err
		}
		wire, err := apiconv.SurrogateAnswerToAPI(a)
		if err != nil {
			return err
		}
		body, err := json.Marshal(wire)
		if err != nil {
			return err
		}
		codec = append(codec, timeMedian(20, func() {
			_, _ = json.Marshal(&pq.q)
			_, _ = json.Marshal(wire)
			var out api.SurrogateAnswer
			_ = json.Unmarshal(body, &out)
		})*1e6)
		per = append(per, timeMedian(20, func() { _, _ = m.Answer(q) })*1e6)
	}
	b.set("http.codec_us", median(codec), "us")
	b.set("trace.unaccounted_frac", (overhead-floor-median(codec))/p50, "ratio")
	b.set("surrogate.answer_us", median(per), "us")
	return nil
}

// replaySurrogateLayers times the layers under the surrogates' coarse
// recipe (FastOptions, as surrogate builds evaluate it).
func replaySurrogateLayers(ctx context.Context, b *bench, st *surrogateState) error {
	sc := st.specs[0].Scenario
	sc.UQ = api.UQSpec{}
	rec, err := json.Marshal(st.meta[0])
	if err != nil {
		return err
	}
	if _, err := replayCore(ctx, b, sc, true, rec); err != nil {
		return err
	}
	fillLayers(b)
	return nil
}

// replayLayers times the module functions on the job workload's own mesh,
// options and inputs, and cross-checks the replay against /metrics.
func replayLayers(ctx context.Context, b *bench, js *jobSpec, ops []*jobOp, p50ms float64) error {
	sc := js.replay(b.seed)
	rec, err := json.Marshal(ops[len(ops)-1].job)
	if err != nil {
		return err
	}
	rs, err := replayCore(ctx, b, sc, js.ensemble, rec)
	if err != nil {
		return err
	}
	if _, err := httpFloor(ctx, b); err != nil {
		return err
	}
	// Decomposition: submit + queue wait + the evaluations' share of one
	// runner + SSE delivery against the traced p50 job latency.
	var perJob []float64
	for _, op := range ops {
		if op.err == nil {
			perJob = append(perJob, float64(js.evals(op.scenario())))
		}
	}
	workers := float64(max(1, js.sampleWorkers))
	predicted := b.metrics["server.submit_ms"].Value +
		b.metrics["server.queue_wait_s"].Value*1e3 +
		median(perJob)*b.metrics["core.run_s"].Value*1e3/workers +
		b.metrics["server.sse_lag_ms"].Value
	b.set("trace.unaccounted_frac", (p50ms-predicted)/p50ms, "ratio")
	fmt.Printf("decomposition: p50 %.1f ms, submit+queue+run+sse %.1f ms\n", p50ms, predicted)

	if !js.ensemble {
		// The served job's solver counters must equal the replay's
		// core.Result.Stats for the same spec and options. The job runs
		// alone here, so the /metrics delta is its own.
		before, err := b.scrape(ctx)
		if err != nil {
			return err
		}
		op := b.runJob(ctx, -2, js.batch(sc))
		after, err := b.scrape(ctx)
		if err != nil {
			return err
		}
		c := countSolves(before, after)
		err = op.err
		if err == nil {
			got := [4]float64{c.solves["electric"], c.solves["thermal"], c.iters["electric"], c.iters["thermal"]}
			want := [4]float64{float64(rs.ElecSolves), float64(rs.ThermSolves), float64(rs.ElecCGIters), float64(rs.ThermCGIters)}
			fmt.Printf("cross-check solves/iters (electric, thermal): /metrics %v, replay %v\n", got, want)
			if got != want {
				err = fmt.Errorf("/metrics counted %v solves/iterations, the replay %v", got, want)
			}
		}
		b.check(js.name+".replay_matches_metrics", err)
	}
	fillLayers(b)
	return nil
}

// replayCore times scenario, core, solver, sparse, fit, uq and jobstore
// calls on the scenario's mesh and options, returning the stats of one
// replayed run.
func replayCore(ctx context.Context, b *bench, sc api.Scenario, ensemble bool, rec []byte) (core.RunStats, error) {
	var rs core.RunStats
	in, err := apiconv.ScenarioToInternal(&sc)
	if err != nil {
		return rs, err
	}
	spec, err := in.Chip.Materialize()
	if err != nil {
		return rs, err
	}
	cache := scenario.NewCache()
	t := time.Now()
	inst, err := cache.Instantiate(spec, in.Chip.ActivePairs)
	if err != nil {
		return rs, err
	}
	b.set("scenario.instantiate_miss_ms", time.Since(t).Seconds()*1e3, "ms")
	b.set("scenario.instantiate_hit_us", timeMedian(20, func() { _, _ = cache.Instantiate(spec, in.Chip.ActivePairs) })*1e6, "us")

	opt := in.Sim.CoreOptions(ensemble)
	var sim *core.Simulator
	var simErr error
	b.set("core.new_simulator_ms", timeMedian(5, func() { sim, simErr = inst.Simulator(opt) })*1e3, "ms")
	if simErr != nil {
		return rs, simErr
	}
	// Runs: at least one, repeated up to a two-second budget; the stats
	// come from the first (each run starts from the same fresh state).
	var runs []float64
	for start := time.Now(); len(runs) == 0 || (len(runs) < 7 && time.Since(start) < 2*time.Second); {
		if err := ctx.Err(); err != nil {
			return rs, err
		}
		sim.ResetState()
		t := time.Now()
		r, err := sim.Run()
		if err != nil {
			return rs, fmt.Errorf("replay run: %w", err)
		}
		runs = append(runs, time.Since(t).Seconds())
		if len(runs) == 1 {
			rs = r.Stats
		}
	}
	b.set("core.run_s", median(runs), "s")
	b.set("core.precond_builds_per_eval", float64(rs.PrecondBuilds), "count")
	b.set("core.precond_refreshes_per_eval", float64(rs.PrecondRefreshes), "count")
	b.set("core.precond_downgrades_per_eval", float64(rs.PrecondDowngrades), "count")
	fmt.Printf("replay run: %.3fs, electric/thermal solves %d/%d, iterations %d/%d, downgrades %d\n",
		median(runs), rs.ElecSolves, rs.ThermSolves, rs.ElecCGIters, rs.ThermCGIters, rs.PrecondDowngrades)
	b.set("core.electric_solve_ms", timeMedian(5, func() {
		sim.ResetState()
		_, _ = sim.SolveElectric(sim.Temperatures())
	})*1e3, "ms")

	if err := replaySolver(b, inst.Assembler, sim.Options(), inst.Problem.ThermalBC.TInf); err != nil {
		return rs, err
	}
	nOut := (opt.NumSteps + 1) * len(inst.Problem.Wires)
	ss, err := stats.NewStreamStats(nOut, 523, nil)
	if err != nil {
		return rs, err
	}
	out := make([]float64, nOut)
	r := rand.New(rand.NewPCG(b.seed, 7))
	for i := range out {
		out[i] = 300 + 200*r.Float64()
	}
	const folds = 2000
	t = time.Now()
	for i := 0; i < folds; i++ {
		ss.Add(out)
	}
	b.set("uq.fold_us_per_sample", time.Since(t).Seconds()/folds*1e6, "us")
	return rs, replayStore(b, rec)
}

// replaySolver times preconditioner builds, applies, a CG solve, the CSR
// matvec and edge-conductance assembly on the thermal operator: the
// thermal Laplacian at ambient temperature plus the lumped mass over Δt.
func replaySolver(b *bench, asm *fit.Assembler, opt core.Options, ambient float64) error {
	n := asm.Grid.NumNodes()
	T := make([]float64, n)
	for i := range T {
		T[i] = ambient
	}
	a := asm.BuildHouse(T).ThermalLaplacian()
	dt := opt.EndTime / float64(opt.NumSteps)
	m := asm.MassDiag()
	d := make([]float64, n)
	for i := range d {
		d[i] = m[i] / dt
	}
	a.AddToDiag(d)

	var ict *solver.CholPrec
	var mic, ic *solver.IC0Prec
	var e1, e2, e3 error
	b.set("solver.ict_build_ms.thermal", timeMedian(3, func() { ict, e1 = solver.NewICT(a, 0, 0) })*1e3, "ms")
	b.set("solver.mic0_build_ms.thermal", timeMedian(3, func() { mic, e2 = solver.NewMIC0(a, opt.PrecondOmega) })*1e3, "ms")
	b.set("solver.ic0_build_ms.thermal", timeMedian(3, func() { ic, e3 = solver.NewIC0(a) })*1e3, "ms")
	if e1 != nil || e2 != nil || e3 != nil || ic == nil {
		return fmt.Errorf("thermal factorizations: ict %v, mic0 %v, ic0 %v", e1, e2, e3)
	}
	b.set("solver.factor_nnz.thermal", float64(ict.NNZ()), "count")

	r := rand.New(rand.NewPCG(b.seed, 11))
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Float64()
	}
	dst := make([]float64, n)
	b.set("solver.apply_us.ict.thermal", timeMedian(50, func() { ict.Apply(dst, x) })*1e6, "us")
	b.set("solver.apply_us.mic0.thermal", timeMedian(50, func() { mic.Apply(dst, x) })*1e6, "us")

	rhs := make([]float64, n)
	a.MulVec(rhs, x)
	ws := solver.NewWorkspace(n)
	sol := make([]float64, n)
	var cgErr error
	b.set("solver.cg_solve_ms.thermal", timeMedian(5, func() {
		clear(sol)
		_, cgErr = solver.CGWith(ws, a, rhs, sol, ict, solver.Options{Tol: opt.LinTol})
	})*1e3, "ms")
	if cgErr != nil {
		return fmt.Errorf("thermal CG replay: %w", cgErr)
	}

	p := a.Optimize()
	b.set("sparse.matvec_us", timeMedian(50, func() { p.MulVecDot(a.Val, dst, x) })*1e6, "us")
	b.set("sparse.nnz.thermal", float64(a.NNZ()), "count")
	b.set("sparse.matvec_bytes_computed", matvecBytes(a), "B")

	g := make([]float64, asm.NumEdges())
	b.set("fit.edge_conductances_us", timeMedian(20, func() { asm.EdgeConductances(fit.Thermal, T, g) })*1e6, "us")
	return nil
}

// matvecBytes is the computed (not measured) memory traffic of one CSR
// matvec with 32-bit plan indexes: values and column indexes once, the
// row pointers, x gathered once per entry and dst written once.
func matvecBytes(a *sparse.CSR) float64 {
	nnz, n := float64(a.NNZ()), float64(a.Rows)
	return nnz*(8+4+8) + (n+1)*4 + n*8
}

// replayStore times a durable jobstore.FileStore.Put of the workload's
// own record (its last job, or a surrogate's metadata) in a scratch
// directory.
func replayStore(b *bench, rec []byte) error {
	dir, err := os.MkdirTemp(b.dataRoot, "put-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := jobstore.Open(dir, jobstore.Options{})
	if err != nil {
		return err
	}
	defer fs.Close()
	i := 0
	var putErr error
	v := timeMedian(20, func() {
		i++
		if err := fs.Put(jobstore.KindJob, fmt.Sprintf("job-%d", i), rec, jobstore.Counters{}); err != nil {
			putErr = err
		}
	})
	b.set("jobstore.put_us", v*1e6, "us")
	return putErr
}

// timeMedian runs f n times and returns the median duration in seconds.
func timeMedian(n int, f func()) float64 {
	ds := make([]float64, n)
	for i := range ds {
		t := time.Now()
		f()
		ds[i] = time.Since(t).Seconds()
	}
	return median(ds)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
