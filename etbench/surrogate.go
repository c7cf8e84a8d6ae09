package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"etherm/api"
	"etherm/internal/apiconv"
	"etherm/internal/scenario"
	"etherm/internal/surrogate"
)

// surrogateCount is how many cheap surrogates set-up builds.
const surrogateCount = 3

// queryPool is how many distinct queries the seed draws; the measured
// stream samples this pool, so queries repeat and each repeat must be
// answered byte-identically.
const queryPool = 96

// surrogateSpecs returns the seed's surrogate builds: ρ = 1, level 2, on
// the coarse recipe, with drive and wire material drawn from the seed.
func surrogateSpecs(seed uint64) []api.SurrogateSpec {
	r := rng(seed, -1)
	out := make([]api.SurrogateSpec, surrogateCount)
	for i := range out {
		sc := coarseScenario(fmt.Sprintf("surrogate-%d", i))
		sc.Chip.DriveScale = 0.9 + 0.2*r.Float64()
		sc.Chip.WireMaterial = materials[i%len(materials)]
		sc.UQ = api.UQSpec{Rho: ptr(1)}
		out[i] = api.SurrogateSpec{Scenario: sc, Level: 2}
	}
	return out
}

// poolQuery is one generated query against one surrogate.
type poolQuery struct {
	surrogate int
	q         api.SurrogateQuery
}

// queries draws the seed's query pool against the built surrogates: mean
// plus quantiles, P(fail) at a t_crit_k, single δ what-ifs and δ sweeps,
// all inside each surrogate's trained domain.
func queries(seed uint64, meta []*api.Surrogate) []poolQuery {
	r := rng(seed, -2)
	qs := []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}
	out := make([]poolQuery, queryPool)
	for i := range out {
		s := r.IntN(len(meta))
		m := meta[s]
		lo, hi := m.DeltaLo, m.DeltaHi
		span := hi - lo
		var q api.SurrogateQuery
		switch kind := r.Float64(); {
		case kind < 0.4:
			for j, n := 0, 1+r.IntN(3); j < n; j++ {
				q.Quantiles = append(q.Quantiles, qs[r.IntN(len(qs))])
			}
		case kind < 0.65:
			q.TCritK = m.MeanK + (1+3*r.Float64())*m.StdK
		case kind < 0.85:
			q.Delta = ptr(lo + span*(0.01+0.98*r.Float64()))
		default:
			a := lo + span*(0.01+0.48*r.Float64())
			q.Sweep = &api.SurrogateSweep{From: a, To: a + span*(0.01+0.48*r.Float64()), Steps: 4 + r.IntN(13)}
		}
		out[i] = poolQuery{s, q}
	}
	return out
}

// surrogateState is what set-up leaves for the measured window.
type surrogateState struct {
	specs []api.SurrogateSpec
	meta  []*api.Surrogate
	pool  []poolQuery
}

func surrogateWorkload() *workload {
	st := &surrogateState{}
	return &workload{
		setup: func(ctx context.Context, b *bench) error {
			st.specs = surrogateSpecs(b.seed)
			st.meta = st.meta[:0]
			for i := range st.specs {
				if _, err := b.cl.BuildSurrogate(ctx, &st.specs[i]); err != nil {
					return fmt.Errorf("build surrogate %d: %w", i, err)
				}
			}
			for i := range st.specs {
				id := scenarioSurrogateID(st.specs[i])
				m, err := waitSurrogate(ctx, b, id)
				if err != nil {
					return fmt.Errorf("wait surrogate %s: %w", id, err)
				}
				if m.Status != api.SurrogateReady {
					return fmt.Errorf("surrogate %s: %s %s", id, m.Status, m.Error)
				}
				st.meta = append(st.meta, m)
			}
			st.pool = queries(b.seed, st.meta)
			return nil
		},
		measure: func(ctx context.Context, b *bench) error { return measureQueries(ctx, b, st) },
	}
}

// waitSurrogate polls a build every 5 ms. The SDK's WaitSurrogate polls
// every 250 ms, which would quantize setup_s to that step.
func waitSurrogate(ctx context.Context, b *bench, id string) (*api.Surrogate, error) {
	for {
		m, err := b.cl.GetSurrogate(ctx, id)
		if err != nil || m.Status != api.SurrogateBuilding {
			return m, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// scenarioSurrogateID is the content address the server gives a build.
func scenarioSurrogateID(spec api.SurrogateSpec) string {
	in, err := apiconv.ScenarioToInternal(&spec.Scenario)
	if err != nil {
		return ""
	}
	return scenario.SurrogateID(in, spec.EffectiveLevel(), spec.Order)
}

// queryStream draws the pool indexes the querier sends, in order. It
// depends on the seed alone, never on the trace mode.
func (b *bench) queryStream() *rand.Rand { return rng(b.seed, -3) }

// measureQueries runs one closed-loop querier for the window.
func measureQueries(ctx context.Context, b *bench, st *surrogateState) error {
	stream := b.queryStream()
	var before series
	var rt0 runtimeStats
	if b.traced {
		var err error
		if before, err = b.scrape(ctx); err != nil {
			return err
		}
		rt0 = readRuntime()
	}
	var (
		lat        []float64
		errs       []error
		repeatErrs []error
		// first holds each pool query's first answer; every repeat must
		// equal it. Only the pool's answers are kept, so memory does not
		// grow with the query count.
		first = make([]*api.SurrogateAnswer, len(st.pool))
	)
	rss := startRSS(20 * time.Millisecond)
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(b.window)
	for ctx.Err() == nil && time.Now().Before(deadline) {
		i := stream.IntN(len(st.pool))
		pq := &st.pool[i]
		id := st.meta[pq.surrogate].ID
		start := time.Now()
		ans, err := b.cl.QuerySurrogate(ctx, id, &pq.q)
		d := time.Since(start)
		b.attempted++
		if err != nil {
			b.failed++
			errs = append(errs, err)
			continue
		}
		lat = append(lat, d.Seconds()*1e6)
		switch {
		case first[i] == nil:
			first[i] = ans
		case !reflect.DeepEqual(first[i], ans):
			repeatErrs = append(repeatErrs, fmt.Errorf("query %d repeats pool query %d with a different answer", len(lat)-1, i))
		}
	}
	wall := time.Since(t0).Seconds()
	cpu := (cpuTime() - cpu0).Seconds()
	rssMB := rss.Stop()
	var after series
	var rt1 runtimeStats
	if b.traced {
		var err error
		if after, err = b.scrape(ctx); err != nil {
			return err
		}
		rt1 = readRuntime()
	}
	if len(errs) > 0 {
		fmt.Printf("failed queries: %v\n", errJoin(errs))
	}
	if len(lat) == 0 {
		return fmt.Errorf("no query answered in the window")
	}
	p, tv, n, ok := tail(lat)
	fmt.Printf("queries=%d wall=%.3fs latency p50=%.1fus tail p%g=%.1fus (n=%d, ten beyond: %t)\n",
		len(lat), wall, median(lat), p, tv, n, ok)
	if b.traced {
		b.set("trace.latency_p50_ms", median(lat)/1e3, "ms")
	} else {
		b.set("latency_p50_ms", median(lat)/1e3, "ms")
		b.set("latency_tail_ms", tv/1e3, "ms")
		b.set("evals_per_s", float64(len(lat))/wall, "1/s")
		b.set("cpu_per_eval_ms", cpu/float64(len(lat))*1e3, "ms")
		b.set("rss_p90_mb", percentile(rssMB, 90), "MB")
	}

	b.check("surrogate-read.repeats_identical", errJoin(repeatErrs))
	models, err := checkAnswers(ctx, b, st, first)
	if !b.traced {
		return err
	}
	if err := queryLayers(ctx, b, st, models, before, after, lat); err != nil {
		return err
	}
	processLayers(b, rt0, rt1, len(lat))
	return replaySurrogateLayers(ctx, b, st)
}

// checkAnswers builds every surrogate in-process from the same spec and
// requires each pool query's served answer to equal
// surrogate.Model.Answer on it, byte for byte once encoded.
func checkAnswers(ctx context.Context, b *bench, st *surrogateState, served []*api.SurrogateAnswer) ([]*surrogate.Model, error) {
	cache := scenario.NewCache()
	models := make([]*surrogate.Model, len(st.specs))
	for i, spec := range st.specs {
		in, err := apiconv.ScenarioToInternal(&spec.Scenario)
		if err != nil {
			return nil, err
		}
		if models[i], err = scenario.BuildSurrogate(ctx, cache, in, spec.EffectiveLevel(), spec.Order); err != nil {
			return nil, fmt.Errorf("in-process surrogate build: %w", err)
		}
	}
	var errs []error
	for i, pq := range st.pool {
		if served[i] == nil {
			continue // never drawn in this window
		}
		q, err := apiconv.SurrogateQueryToInternal(&pq.q)
		if err != nil {
			return nil, err
		}
		a, err := models[pq.surrogate].Answer(q)
		if err != nil {
			return nil, fmt.Errorf("in-process answer %d: %w", i, err)
		}
		wire, err := apiconv.SurrogateAnswerToAPI(a)
		if err != nil {
			return nil, err
		}
		want, err := json.Marshal(wire)
		if err != nil {
			return nil, err
		}
		got, err := json.Marshal(served[i])
		if err != nil {
			return nil, err
		}
		if string(got) != string(want) {
			errs = append(errs, fmt.Errorf("pool query %d: served %s, model %s", i, got, want))
		}
	}
	b.check("surrogate-read.answers_match_model", errJoin(errs))
	return models, nil
}
