package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"etherm/api"
	"etherm/client"
	"etherm/internal/server"
)

// setupRounds is how many times a run brings up a fresh server (new data
// directory, cold assembly cache) and performs the workload's set-up;
// setup_s is the median. The last round's server is the one measured.
const setupRounds = 3

// bench is the state of one workload run.
type bench struct {
	wl       *workload
	seed     uint64
	window   time.Duration
	traced   bool
	dataRoot string

	srv       *server.Server
	hs        *http.Server
	serveDone chan struct{}
	httpc     *http.Client
	cl        *client.Client
	base      string

	metrics           map[string]metric
	checks            []check
	attempted, failed int
}

// check is one result check; it counts as an operation.
type check struct {
	name string
	err  error
}

func (b *bench) check(name string, err error) {
	b.checks = append(b.checks, check{name, err})
	b.attempted++
	if err != nil {
		b.failed++
	}
}

func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

// execute runs the set-up rounds, the measured window and the checks.
func (b *bench) execute(ctx context.Context) error {
	var setups []float64
	for r := 0; r < setupRounds; r++ {
		b.close()
		t0 := time.Now()
		if err := b.start(filepath.Join(b.dataRoot, fmt.Sprintf("data-%d", r))); err != nil {
			return err
		}
		if err := b.wl.setup(ctx, b); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Printf("setup rounds (s): %v\n", setups)
	if !b.traced {
		b.set("setup_s", median(setups), "s")
	}
	return b.wl.measure(ctx, b)
}

// start brings up a fresh server on a loopback listener with a durable
// data directory, plus the SDK client that drives it.
func (b *bench) start(dir string) error {
	srv, err := server.New(server.Config{MaxConcurrent: 1, MaxHistory: 1 << 16, DataDir: dir})
	if err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return fmt.Errorf("listen: %w", err)
	}
	b.srv = srv
	b.hs = &http.Server{Handler: srv.Handler()}
	b.serveDone = make(chan struct{})
	go func() {
		defer close(b.serveDone)
		_ = b.hs.Serve(ln)
	}()
	b.base = "http://" + ln.Addr().String()
	b.httpc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	b.cl = client.New(b.base, client.WithHTTPClient(b.httpc))
	return nil
}

// close stops the current server, if any, and waits for its serve loop.
func (b *bench) close() {
	if b.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.srv.Drain(ctx)
	_ = b.hs.Close()
	<-b.serveDone
	b.httpc.CloseIdleConnections()
	_ = b.srv.Close()
	b.srv = nil
}

// jobOp is one closed-loop job: POST, SSE watch to the terminal frame, GET.
type jobOp struct {
	k        int
	start    time.Time // before POST /v1/jobs
	accepted time.Time // POST returned 202
	end      time.Time // terminal SSE frame received
	job      *api.Job  // final view, with result
	samples  []time.Time
	levels   []levelMark
	err      error
}

// levelMark records one "level" SSE frame with the process CPU time at
// its receipt.
type levelMark struct {
	at  time.Time
	cpu time.Duration
	lvl api.RareLevel
}

func (op *jobOp) latency() time.Duration { return op.end.Sub(op.start) }

// scenario returns the job's single scenario result.
func (op *jobOp) scenario() *api.ScenarioResult { return op.job.Result.Scenarios[0] }

// runJob submits one batch and follows it to its terminal state.
func (b *bench) runJob(ctx context.Context, k int, batch *api.Batch) *jobOp {
	op := &jobOp{k: k, start: time.Now()}
	j, err := b.cl.SubmitBatch(ctx, batch)
	op.accepted = time.Now()
	if err != nil {
		op.err = fmt.Errorf("submit: %w", err)
		return op
	}
	events, errc := b.cl.WatchJob(ctx, j.ID)
	for ev := range events {
		now := time.Now()
		switch {
		case ev.Terminal():
			op.end = now
		case !b.traced:
		case ev.Type == api.EventSample:
			op.samples = append(op.samples, now)
		case ev.Type == api.EventLevel && ev.Level != nil:
			op.levels = append(op.levels, levelMark{now, cpuTime(), *ev.Level})
		}
	}
	if err := <-errc; err != nil {
		op.err = fmt.Errorf("watch %s: %w", j.ID, err)
		return op
	}
	if op.job, err = b.cl.GetJob(ctx, j.ID); err != nil {
		op.err = fmt.Errorf("get %s: %w", j.ID, err)
		return op
	}
	switch {
	case op.job.Status != api.JobDone:
		op.err = fmt.Errorf("job %s ended %s: %s", j.ID, op.job.Status, op.job.Error)
	case op.job.Result == nil || len(op.job.Result.Scenarios) != 1:
		op.err = fmt.Errorf("job %s: no scenario result", j.ID)
	case !op.scenario().OK:
		op.err = fmt.Errorf("job %s: scenario failed: %s", j.ID, op.scenario().Error)
	}
	return op
}

// jobLoop runs `clients` closed-loop clients that take job indexes in
// order and submit gen(k) until the window closes; jobs in flight at the
// deadline run to completion. Ops are returned sorted by index.
func (b *bench) jobLoop(ctx context.Context, clients int, deadline time.Time, gen func(k int) *api.Batch) []*jobOp {
	var (
		mu   sync.Mutex
		next int
		ops  []*jobOp
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				op := b.runJob(ctx, k, gen(k))
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(ops, func(i, j int) bool { return ops[i].k < ops[j].k })
	return ops
}

// scrape reads the server's /metrics exposition into series → value.
func (b *bench) scrape(ctx context.Context) (series, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.httpc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

// series maps a full series name (with its sorted label set, exactly as
// exposed) to its value.
type series map[string]float64

func parseExposition(r io.Reader) (series, error) {
	out := series{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad exposition value in %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after − before for one series.
func delta(before, after series, name string) float64 { return after[name] - before[name] }

// cpuTime returns the process CPU time (user + system) from getrusage.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// errJoin flattens per-op errors into one check error.
func errJoin(errs []error) error {
	if len(errs) > 3 {
		errs = append(errs[:3], fmt.Errorf("and %d more", len(errs)-3))
	}
	return errors.Join(errs...)
}
