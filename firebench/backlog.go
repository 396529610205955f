package main

import (
	"bufio"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/products"
	"repro/internal/rdf"
	"repro/internal/refine"
	"repro/internal/seviri"
	"repro/internal/shard"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// flushClock wraps the backlog's store to watch the pipeline writer
// from outside. Each InsertAll is one flush of in-order products, and
// the writer refines and extracts a flush's products before it starts
// the next flush, so those products are done when the last store call
// before the next InsertAll (or before the window ends) returns.
type flushClock struct {
	strabon.API
	tr *tracer

	mu       sync.Mutex
	start    time.Time // catch-up start
	lastEnd  time.Time
	open     int       // products of the flush being refined
	done     []float64 // per acquisition: ms from catch-up start to product
	insertMs []float64
}

func (c *flushClock) touch() {
	c.mu.Lock()
	c.lastEnd = time.Now()
	c.mu.Unlock()
}

// closeFlush marks the open flush's products done at the last store
// call's return.
func (c *flushClock) closeFlush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for ; c.open > 0; c.open-- {
		c.done = append(c.done, ms(c.lastEnd.Sub(c.start)))
	}
}

func (c *flushClock) InsertAll(groups ...[]rdf.Triple) []int {
	c.closeFlush()
	start := time.Now()
	out := c.API.InsertAll(groups...)
	end := time.Now()
	c.tr.record("flush", "shard.insert_all", 0, start, end)
	c.mu.Lock()
	c.insertMs = append(c.insertMs, ms(end.Sub(start)))
	c.open = len(groups)
	c.lastEnd = end
	c.mu.Unlock()
	return out
}

func (c *flushClock) Update(src string) (stsparql.UpdateStats, error) {
	defer c.touch()
	return c.API.Update(src)
}

func (c *flushClock) UpdateScoped(src string) (stsparql.UpdateStats, error) {
	defer c.touch()
	return c.API.UpdateScoped(src)
}

func (c *flushClock) QueryStreamCtx(ctx context.Context, src string) (strabon.QueryCursor, error) {
	cur, err := c.API.QueryStreamCtx(ctx, src)
	if err != nil {
		c.touch()
		return nil, err
	}
	return &clockCursor{QueryCursor: cur, clock: c}, nil
}

// clockCursor stamps the clock when a streamed query is closed, which
// is when its evaluation has finished.
type clockCursor struct {
	strabon.QueryCursor
	clock *flushClock
}

func (k *clockCursor) Close() error {
	defer k.clock.touch()
	return k.QueryCursor.Close()
}

// tracedChain spans every Process call of a pipeline worker's chain.
type tracedChain struct {
	core.Chain
	tr *tracer
}

func (c tracedChain) Process(sensor string, at time.Time) (*products.Product, error) {
	start := time.Now()
	p, err := c.Chain.Process(sensor, at)
	c.tr.record(at.UTC().Format(time.RFC3339), "chain.process", 0, start, time.Now())
	return p, err
}

// passSamples is how many host speed samples a backlog pass takes
// before and after its catch-up.
const passSamples = 3

// backlogPass is one catch-up of the whole window.
type backlogPass struct {
	setup   time.Duration
	elapsed time.Duration
	kept    float64 // the share of the catch-up not stolen from the host (see running)
	clock   *flushClock
	svc     *core.Service
	store   *shard.Store
	reg     *obs.Registry
	digests []string
}

// build sets up the pass's service over a fresh sharded store and
// records how long that took.
func (bp *backlogPass) build(sim *seviri.Simulator) (*core.Service, error) {
	runtime.GC() // each set-up, and so each pass, starts from a collected heap
	start := time.Now()
	bp.store = shard.New(shard.Config{Slices: 4, Width: time.Hour, Epoch: scenarioConfig().Start})
	bp.clock = &flushClock{API: bp.store}
	svc, _, err := newService(bp.clock, sim)
	if err != nil {
		return nil, err
	}
	svc.Workers = runtime.NumCPU()
	bp.setup = time.Since(start)
	return svc, nil
}

// runBacklogPass builds a fresh service over a 4-slice sharded store
// and catches up the window with RunWindow at Workers = nproc. Scene
// rendering runs inside the pipeline and so inside the timer; the
// traced pass reports its share. The host's speed is sampled into host
// before and after the catch-up, which the samples must not overlap.
func runBacklogPass(cfg runConfig, sim *seviri.Simulator, host *hostClock, rep *report, traced bool) (*backlogPass, error) {
	times := windowTimes(scenarioConfig(), windowAcquisitions)
	bp := &backlogPass{}
	svc, err := bp.build(sim)
	if err != nil {
		return nil, err
	}
	if traced {
		bp.clock.tr = cfg.tracer
		bp.reg = obs.NewRegistry()
		svc.Metrics = core.NewPipelineMetrics(bp.reg)
		newChain := svc.NewChain
		svc.NewChain = func() core.Chain { return tracedChain{Chain: newChain(), tr: cfg.tracer} }
	}
	bp.svc = svc

	rep.attempted += len(times)
	for i := 0; i < passSamples; i++ {
		host.sample()
	}
	start, ticks := time.Now(), readTicks()
	bp.clock.start = start
	root := cfg.tracer.start("window", "backlog.window", 0)
	err = svc.RunWindow(seviri.MSG1, times[0], time.Duration(len(times))*seviri.MSG1.Cadence)
	cfg.tracer.end(root)
	bp.elapsed = time.Since(start)
	bp.kept = running(ticks, readTicks())
	for i := 0; i < passSamples; i++ {
		host.sample()
	}
	if err != nil {
		rep.fail("run window: %v", err)
		return bp, nil
	}
	bp.clock.closeFlush()
	if len(bp.clock.done) != len(times) || len(svc.Reports) != len(times) {
		rep.fail("window serviced %d of %d acquisitions (%d reports)", len(bp.clock.done), len(times), len(svc.Reports))
	}

	// The refined products, extracted after the timer.
	for _, at := range times {
		res, err := svc.Refiner.CurrentHotspots(at)
		if err != nil {
			rep.fail("extract %s: %v", at.Format(time.RFC3339), err)
			bp.digests = append(bp.digests, "error")
			continue
		}
		bp.digests = append(bp.digests, productDigest(seviri.MSG1.Name, at, res))
	}
	return bp, nil
}

func runBacklog(cfg runConfig) (*report, error) {
	rep := newReport()
	times := windowTimes(scenarioConfig(), windowAcquisitions)
	sim := benchSimulator(cfg.seed)
	// The end-to-end figures are medians over passes of each pass's
	// figure, reported on the nominal host (see hostClock).
	var (
		setups, rates, perAcqMs     []float64
		passP50, passP90, passWrite []float64
		refDigests                  []string
		raw, refined                int
		last                        *backlogPass
	)
	host := newHostClock()
	for i := 0; i < setUpSamples-1; i++ {
		bp := new(backlogPass)
		host.sample()
		if _, err := bp.build(sim); err != nil {
			return nil, err
		}
		setups = append(setups, bp.setup.Seconds())
	}
	deadline := time.Now().Add(cfg.budget)
	for pass := 0; ; pass++ {
		last = nil // released before the next set-up collects the heap
		bp, err := runBacklogPass(cfg, sim, host, rep, false)
		if err != nil {
			return nil, err
		}
		k := bp.kept
		setups = append(setups, bp.setup.Seconds())
		rates = append(rates, float64(len(times))/bp.elapsed.Seconds()/k)
		perAcqMs = append(perAcqMs, ms(bp.elapsed)/float64(len(times))*k)
		passP50 = append(passP50, median(bp.clock.done)*k)
		passP90 = append(passP90, quantile(bp.clock.done, 0.9)*k)
		passWrite = append(passWrite, quantile(bp.clock.insertMs, 0.9)*k)
		fmt.Printf("# pass %d: %.2f s wall clock, %.1f%% of it stolen; less stolen time %.1f acq/s, p50 %.0f ms, p90 %.0f ms, write p90 %.2f ms\n",
			pass, bp.elapsed.Seconds(), 100*(1-k), rates[pass], passP50[pass], passP90[pass], passWrite[pass])
		if refDigests == nil {
			refDigests = bp.digests
			for _, r := range bp.svc.Reports {
				raw += r.RawHotspot
				refined += r.Refined
			}
			fmt.Printf("# acquisitions=%d raw_hotspots=%d refined_hotspots=%d digest=%s workers=%d\n",
				len(times), raw, refined, windowDigest(refDigests), bp.svc.EffectiveWorkers())
		} else {
			checkDigests(rep, fmt.Sprintf("pass %d", pass), times, refDigests, bp.digests)
		}
		last = bp
		if cfg.tracing || time.Now().Add(bp.elapsed).After(deadline) {
			break
		}
	}
	crossCheckDigest(rep, "backlog", cfg.seed, times, refDigests)

	if cfg.tracing {
		last = nil
		tracedHost := newHostClock()
		bp, err := runBacklogPass(cfg, sim, tracedHost, rep, true)
		if err != nil {
			return nil, err
		}
		checkDigests(rep, "traced pass", times, refDigests, bp.digests)
		backlogLayers(rep, bp, ms(bp.elapsed)/float64(len(times))*bp.kept*tracedHost.speed()-mean(perAcqMs)*host.speed())
		last = bp
	}

	f := host.speed()
	rep.endToEnd["setup_s"] = median(setups) * host.whole()
	rep.endToEnd["heap_mb"] = liveHeapMB()
	rep.endToEnd["p50_ms"] = median(passP50) * f
	rep.endToEnd["p90_ms"] = median(passP90) * f
	rep.endToEnd["ops_per_s"] = median(rates) / f
	rep.endToEnd["write_p90_ms"] = median(passWrite) * f
	rep.aliases["p50_ms"] = "catch-up time to refined product, p50"
	rep.aliases["p90_ms"] = "catch-up time to refined product, p90"
	rep.aliases["ops_per_s"] = "backlog_acq_per_s"
	rep.aliases["write_p90_ms"] = "flush InsertAll p90"
	runtime.KeepAlive(last)
	fmt.Printf("# %d passes of %d acquisitions, %d set-ups; %s\n", len(rates), len(times), len(setups), host)
	return rep, nil
}

// backlogLayers fills the per-layer metrics of a traced backlog pass.
func backlogLayers(rep *report, bp *backlogPass, overheadMs float64) {
	pl := rep.perLayer
	n := float64(max(len(bp.svc.Reports), 1))
	stages, flushes, flushed := pipelineSums(bp.reg)
	pl["pipeline.acquire_s"] = stages["acquire"]
	pl["pipeline.ingest_s"] = stages["ingest"]
	pl["pipeline.chain_s"] = stages["chain"]
	pl["pipeline.flush_s"] = stages["flush"]
	pl["pipeline.refine_s"] = stages["refine"]
	pl["pipeline.flush_products_mean"] = ratio(flushed, flushes)
	pl["seviri.render_ms"] = stages["acquire"] * 1000 / n
	pl["vault.ingest_ms"] = stages["ingest"] * 1000 / n
	pl["vault.decode_mb"] = float64(bp.svc.Vault.Stats().BytesRead) / 1e6 / n
	pl["chain.process_ms"] = stages["chain"] * 1000 / n

	// Per-rule times are each product's share of its flush's batched
	// rule evaluation, as the pipeline reports them.
	ruleName := map[refine.Op]string{}
	for _, s := range ruleSteps {
		ruleName[s.op] = s.name
	}
	raw, refined := 0, 0
	for _, r := range bp.svc.Reports {
		raw += r.RawHotspot
		refined += r.Refined
		for _, t := range r.RefineOps {
			pl["refine."+ruleName[t.Op]+"_ms"] += ms(t.Duration) / n
		}
	}
	pl["products.raw_hotspots"] = float64(raw)
	pl["refine.refined_hotspots"] = float64(refined)

	storeLayers(pl, bp.store)
	shardLayers(pl, bp.store)
	pl["shard.insert_ms"] = mean(bp.clock.insertMs)
	pl["trace.overhead_ms"] = overheadMs
	pl["error_share"] = ratio(float64(rep.failed), float64(rep.attempted))
}

// shardLayers reads the sharded store's per-shard counters: summed
// dictionary entries and the largest time slice's share of the sliced
// triples.
func shardLayers(pl map[string]float64, st *shard.Store) {
	entries, total, largest := 0, 0, 0
	for _, s := range st.ShardStats() {
		entries += s.DictEntries
		if s.Name == "static" {
			continue
		}
		total += s.Triples
		largest = max(largest, s.Triples)
	}
	pl["shard.dict_entries"] = float64(entries)
	pl["shard.triples_max_share"] = ratio(float64(largest), float64(total))
}

// pipelineSums reads the pipeline's stage-time sums and flush-size
// totals from the registry's Prometheus exposition, the operator's view
// of the same instruments.
func pipelineSums(reg *obs.Registry) (stages map[string]float64, flushes, products float64) {
	var b strings.Builder
	reg.WritePrometheus(&b)
	stages = map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, `core_pipeline_stage_seconds_sum{stage="`):
			stages[strings.TrimSuffix(strings.TrimPrefix(name, `core_pipeline_stage_seconds_sum{stage="`), `"}`)] = v
		case name == "core_pipeline_flush_products_sum":
			products = v
		case name == "core_pipeline_flush_products_count":
			flushes = v
		}
	}
	return stages, flushes, products
}
