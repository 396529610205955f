package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/products"
	"repro/internal/refine"
	"repro/internal/seviri"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// The acquisition window the acquisition and backlog workloads both
// service: MSG1 acquisitions from 08:00 on the first scenario day,
// which runs from zero hotspots at dawn to the midday fire peak.
const windowAcquisitions = 100

func scenarioConfig() seviri.ScenarioConfig {
	cfg := seviri.DefaultScenarioConfig()
	cfg.Days = 1
	return cfg
}

func windowTimes(cfg seviri.ScenarioConfig, n int) []time.Time {
	return seviri.AcquisitionTimes(seviri.MSG1, cfg.Start.Add(8*time.Hour), time.Duration(n)*seviri.MSG1.Cadence)
}

// renderWindow renders the synthetic downlink of every acquisition,
// returning the raw acquisitions and the per-acquisition render time.
// Rendering is test harness, not system.
func renderWindow(sim *seviri.Simulator, times []time.Time) ([]*seviri.RawAcquisition, []float64, error) {
	out := make([]*seviri.RawAcquisition, 0, len(times))
	renderMs := make([]float64, 0, len(times))
	for _, at := range times {
		start := time.Now()
		acq, err := sim.Acquire(seviri.MSG1, at, segments, compressed)
		if err != nil {
			return nil, nil, fmt.Errorf("render %s: %w", at.Format(time.RFC3339), err)
		}
		renderMs = append(renderMs, ms(time.Since(start)))
		out = append(out, acq)
	}
	return out, renderMs, nil
}

// newService builds the service a window workload runs on, over the
// given store and the benchmark's world, rendering sim's fire day, and
// reports how long the build took. Each call is one set-up sample.
func newService(st strabon.API, sim *seviri.Simulator) (*core.Service, time.Duration, error) {
	start := time.Now()
	svc, err := core.NewServiceWithStore(worldSeed, scenarioConfig(), st)
	if err != nil {
		return nil, 0, err
	}
	elapsed := time.Since(start)
	if svc.Segments != segments || svc.Compress != compressed {
		return nil, 0, fmt.Errorf("service downlink is %d segments, compressed=%v; the benchmark renders %d, %v",
			svc.Segments, svc.Compress, segments, compressed)
	}
	svc.Sim = sim
	return svc, elapsed, nil
}

// The downlink shape the service expects (core.NewServiceWithStore).
const (
	segments   = 4
	compressed = true
)

// setUpSamples is how many set-ups a run times before measuring.
const setUpSamples = 9

// stepRendered services one pre-rendered acquisition exactly as
// core.Service.Step does, minus the rendering: vault ingest, processing
// chain, refinement, product extraction, with the same bookkeeping.
// The drift test holds the two equal.
func stepRendered(svc *core.Service, acq *seviri.RawAcquisition) (*core.AcquisitionReport, *stsparql.Result, error) {
	sensor, at := acq.Sensor, acq.Timestamp
	if err := core.IngestAcquisition(svc.Vault, acq); err != nil {
		return nil, nil, fmt.Errorf("ingest: %w", err)
	}
	chainStart := time.Now()
	product, err := svc.Chain.Process(sensor.Name, at)
	if err != nil {
		return nil, nil, fmt.Errorf("chain: %w", err)
	}
	chainTime := time.Since(chainStart)
	svc.PlainProducts = append(svc.PlainProducts, product)
	timings, err := svc.Refiner.RunAll(product)
	if err != nil {
		return nil, nil, err
	}
	refined, err := svc.Refiner.CurrentHotspots(at)
	if err != nil {
		return nil, nil, err
	}
	return appendReport(svc, sensor, at, len(product.Hotspots), len(refined.Rows), chainTime, timings), refined, nil
}

// appendReport records a serviced acquisition the way Service.Step does.
func appendReport(svc *core.Service, sensor seviri.Sensor, at time.Time, raw, refined int,
	chainTime time.Duration, timings []refine.Timing) *core.AcquisitionReport {
	total := chainTime
	for _, t := range timings {
		total += t.Duration
	}
	svc.Reports = append(svc.Reports, core.AcquisitionReport{
		Sensor:      sensor.Name,
		At:          at,
		RawHotspot:  raw,
		Refined:     refined,
		ChainTime:   chainTime,
		RefineOps:   timings,
		DeadlineMet: total < sensor.Cadence,
	})
	return &svc.Reports[len(svc.Reports)-1]
}

// ruleSteps is Runner.RunAll decomposed into its public rule methods,
// in RunAll's order.
var ruleSteps = []struct {
	name string // metric name component
	op   refine.Op
	fn   func(*refine.Runner, *products.Product) (int, error)
}{
	{"store", refine.OpStore, (*refine.Runner).StoreProduct},
	{"municipalities", refine.OpMunicipalities, (*refine.Runner).Municipalities},
	{"delete_in_sea", refine.OpDeleteInSea, (*refine.Runner).DeleteInSea},
	{"invalid_for_fires", refine.OpInvalidForFires, (*refine.Runner).InvalidForFires},
	{"refine_in_coast", refine.OpRefineInCoast, (*refine.Runner).RefineInCoast},
	{"time_persistence", refine.OpTimePersistence, (*refine.Runner).TimePersistence},
}

// extractStep names the product extraction (Runner.CurrentHotspots)
// that follows the rules.
const extractStep = "current_hotspots"

// layerTotals accumulates the traced acquisition path's per-layer work.
type layerTotals struct {
	n            int
	ingest       time.Duration
	decodedBytes int64
	chain        time.Duration
	chainBytes   uint64
	ruleTime     map[string]time.Duration
	ruleAllocs   map[string]uint64
	ruleAffected map[string]int
	raw, refined int
}

func newLayerTotals() *layerTotals {
	return &layerTotals{
		ruleTime:     map[string]time.Duration{},
		ruleAllocs:   map[string]uint64{},
		ruleAffected: map[string]int{},
	}
}

// stepTraced is stepRendered with a span around every public call: the
// vault ingest, the chain, and each refinement rule of RunAll called
// through its own method. It records per-layer work in lt.
func stepTraced(svc *core.Service, acq *seviri.RawAcquisition, tr *tracer, lt *layerTotals) (*core.AcquisitionReport, *stsparql.Result, error) {
	sensor, at := acq.Sensor, acq.Timestamp
	trace := at.UTC().Format(time.RFC3339)
	root := tr.start(trace, "acquisition", 0)
	defer tr.end(root)

	before := svc.Vault.Stats().BytesRead
	start := time.Now()
	err := core.IngestAcquisition(svc.Vault, acq)
	lt.ingest += time.Since(start)
	tr.record(trace, "vault.ingest", root, start, time.Now())
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: %w", err)
	}

	allocs := readAllocs()
	start = time.Now()
	product, err := svc.Chain.Process(sensor.Name, at)
	chainTime := time.Since(start)
	tr.record(trace, "chain.process", root, start, time.Now())
	lt.chainBytes += readAllocs().since(allocs).bytes
	if err != nil {
		return nil, nil, fmt.Errorf("chain: %w", err)
	}
	lt.chain += chainTime
	lt.decodedBytes += svc.Vault.Stats().BytesRead - before
	svc.PlainProducts = append(svc.PlainProducts, product)

	// rule times one public call and records its span, allocations and
	// result count.
	rule := func(name string, fn func() (int, error)) (time.Duration, int, error) {
		allocs := readAllocs()
		start := time.Now()
		n, err := fn()
		d := time.Since(start)
		tr.record(trace, "refine."+name, root, start, time.Now())
		lt.ruleAllocs[name] += readAllocs().since(allocs).mallocs
		lt.ruleTime[name] += d
		lt.ruleAffected[name] += n
		if err != nil {
			return d, n, fmt.Errorf("refine: %s: %w", name, err)
		}
		return d, n, nil
	}
	var timings []refine.Timing
	for _, step := range ruleSteps {
		d, n, err := rule(step.name, func() (int, error) { return step.fn(svc.Refiner, product) })
		if err != nil {
			return nil, nil, err
		}
		timings = append(timings, refine.Timing{Op: step.op, At: at, Duration: d, Affected: n})
	}
	var refined *stsparql.Result
	if _, _, err := rule(extractStep, func() (int, error) {
		refined, err = svc.Refiner.CurrentHotspots(at)
		if err != nil {
			return 0, err
		}
		return len(refined.Rows), nil
	}); err != nil {
		return nil, nil, err
	}
	lt.n++
	lt.raw += len(product.Hotspots)
	lt.refined += len(refined.Rows)
	return appendReport(svc, sensor, at, len(product.Hotspots), len(refined.Rows), chainTime, timings), refined, nil
}

// productDigest fingerprints one acquisition's refined product: every
// extracted hotspot as "sensor|time|wkt|confidence", sorted and hashed,
// as core.SortedHotspotKeys renders products.
func productDigest(sensor string, at time.Time, res *stsparql.Result) string {
	keys := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		conf, _ := row["conf"].Float()
		keys = append(keys, fmt.Sprintf("%s|%s|%s|%.3f", sensor, at.UTC().Format(time.RFC3339), row["g"].Value, conf))
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// windowDigest folds per-acquisition digests into one.
func windowDigest(perAcq []string) string {
	h := sha256.New()
	for _, d := range perAcq {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// passResult is one pass over the window.
type passResult struct {
	latencyMs []float64 // wall-clock time per acquisition
	keptMs    []float64 // the same less the time stolen from the host (see running)
	storeMs   []float64 // the Store step's insert time per acquisition, less stolen time
	digests   []string
	raw       int
	refined   int
}

// sampleEvery is how many acquisitions a pass services between two
// samples of the host's speed.
const sampleEvery = 10

// servicePass services the rendered window on a fresh service, one
// acquisition at a time on this goroutine. With a host it removes the
// time stolen from the host from every sampleEvery acquisitions' times
// and then samples the host's speed.
func servicePass(svc *core.Service, scenes []*seviri.RawAcquisition, host *hostClock, tr *tracer, lt *layerTotals, rep *report) passResult {
	var pr passResult
	segment := readTicks()
	for i, acq := range scenes {
		rep.attempted++
		start := time.Now()
		var (
			ar      *core.AcquisitionReport
			refined *stsparql.Result
			err     error
		)
		if tr != nil {
			ar, refined, err = stepTraced(svc, acq, tr, lt)
		} else {
			ar, refined, err = stepRendered(svc, acq)
		}
		pr.latencyMs = append(pr.latencyMs, ms(time.Since(start)))
		store := 0.0
		if err != nil {
			rep.fail("acquisition %s: %v", acq.Timestamp.Format(time.RFC3339), err)
			pr.digests = append(pr.digests, "error")
		} else {
			for _, t := range ar.RefineOps {
				if t.Op == refine.OpStore {
					store = ms(t.Duration)
				}
			}
			pr.raw += ar.RawHotspot
			pr.refined += ar.Refined
			pr.digests = append(pr.digests, productDigest(acq.Sensor.Name, acq.Timestamp, refined))
		}
		pr.storeMs = append(pr.storeMs, store)
		if host != nil && ((i+1)%sampleEvery == 0 || i == len(scenes)-1) {
			kept := running(segment, readTicks())
			for j := len(pr.keptMs); j <= i; j++ {
				pr.keptMs = append(pr.keptMs, pr.latencyMs[j]*kept)
				pr.storeMs[j] *= kept
			}
			host.sample()
			segment = readTicks()
		}
	}
	return pr
}

// acrossPasses folds each acquisition's values over the passes with
// fold.
func acrossPasses(passes [][]float64, fold func([]float64) float64) []float64 {
	out := make([]float64, len(passes[0]))
	col := make([]float64, len(passes))
	for i := range out {
		for p := range passes {
			col[p] = passes[p][i]
		}
		out[i] = fold(col)
	}
	return out
}

// checkDigests counts every acquisition whose refined product differs
// from the reference pass as a failed operation.
func checkDigests(rep *report, what string, times []time.Time, want, got []string) {
	for i := range want {
		if i < len(got) && got[i] != want[i] {
			rep.fail("%s: acquisition %s refined product differs", what, times[i].Format(time.RFC3339))
		}
	}
}

func runAcquisition(cfg runConfig) (*report, error) {
	rep := newReport()
	times := windowTimes(scenarioConfig(), windowAcquisitions)
	sim := benchSimulator(cfg.seed)
	scenes, renderMs, err := renderWindow(sim, times)
	if err != nil {
		return nil, err
	}

	// Every pass services the same acquisitions on a fresh service, so
	// each acquisition's work is the same in every pass. An acquisition's
	// latency is its median over the passes, and its Store step's write
	// time the fastest pass's; every time is reported on the nominal host
	// (see hostClock).
	var (
		setups        []float64
		kept, storeMs [][]float64
		svc           *core.Service
		ref           passResult
	)
	host := newHostClock()
	build := func() error {
		var setup time.Duration
		svc = nil
		runtime.GC() // each set-up, and so each pass, starts from a collected heap
		host.sample()
		svc, setup, err = newService(strabon.New(), sim)
		setups = append(setups, setup.Seconds())
		return err
	}
	for i := 0; i < setUpSamples; i++ {
		if err := build(); err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(cfg.budget)
	for pass := 0; ; pass++ {
		if pass > 0 {
			if err := build(); err != nil {
				return nil, err
			}
		}
		passStart := time.Now()
		pr := servicePass(svc, scenes, host, nil, nil, rep)
		passTime := time.Since(passStart)
		kept, storeMs = append(kept, pr.keptMs), append(storeMs, pr.storeMs)
		fmt.Printf("# pass %d: %.1f s; per acquisition p50 %.1f ms, p90 %.1f ms wall clock\n",
			pass, passTime.Seconds(), median(pr.latencyMs), quantile(pr.latencyMs, 0.9))
		if pass == 0 {
			ref = pr
		} else {
			checkDigests(rep, fmt.Sprintf("pass %d", pass), times, ref.digests, pr.digests)
		}
		if cfg.tracing || time.Now().Add(passTime).After(deadline) {
			break
		}
	}
	f := host.speed()
	latency := acrossPasses(kept, median)
	fmt.Printf("# acquisitions=%d raw_hotspots=%d refined_hotspots=%d digest=%s\n",
		len(times), ref.raw, ref.refined, windowDigest(ref.digests))
	crossCheckDigest(rep, "acquisition", cfg.seed, times, ref.digests)

	if cfg.tracing {
		if err := build(); err != nil {
			return nil, err
		}
		lt, tracedHost := newLayerTotals(), newHostClock()
		pr := servicePass(svc, scenes, tracedHost, cfg.tracer, lt, rep)
		checkDigests(rep, "traced pass", times, ref.digests, pr.digests)
		acquisitionLayers(rep, cfg.tracer, svc, lt, renderMs, mean(pr.keptMs)*tracedHost.speed()-mean(latency)*f)
	}

	scenes = nil
	rep.endToEnd["setup_s"] = median(setups) * host.whole()
	rep.endToEnd["heap_mb"] = liveHeapMB()
	rep.endToEnd["p50_ms"] = median(latency) * f
	rep.endToEnd["p90_ms"] = quantile(latency, 0.9) * f
	rep.endToEnd["ops_per_s"] = ratio(1000, mean(latency)) / f
	rep.endToEnd["write_p90_ms"] = quantile(acrossPasses(storeMs, slices.Min), 0.9) * f
	rep.aliases["p50_ms"] = "acq_p50_ms"
	rep.aliases["p90_ms"] = "acq_p90_ms"
	rep.aliases["ops_per_s"] = "sequential acquisitions per second"
	rep.aliases["write_p90_ms"] = "refine Store step p90"
	runtime.KeepAlive(svc) // the serviced store is part of the live heap
	fmt.Printf("# %d passes of %d acquisitions, %d set-ups; %s\n", len(kept), len(times), len(setups), host)
	return rep, nil
}

// acquisitionLayers fills the per-layer metrics of a traced
// acquisition pass.
func acquisitionLayers(rep *report, tr *tracer, svc *core.Service, lt *layerTotals, renderMs []float64, overheadMs float64) {
	n := float64(max(lt.n, 1))
	pl := rep.perLayer
	pl["vault.ingest_ms"] = ms(lt.ingest) / n
	pl["vault.decode_mb"] = float64(lt.decodedBytes) / 1e6 / n
	pl["chain.process_ms"] = ms(lt.chain) / n
	pl["chain.alloc_mb"] = float64(lt.chainBytes) / 1e6 / n
	for name := range lt.ruleTime {
		pl["refine."+name+"_ms"] = ms(lt.ruleTime[name]) / n
		pl["refine."+name+"_allocs"] = float64(lt.ruleAllocs[name]) / n
		pl["refine."+name+"_affected"] = float64(lt.ruleAffected[name])
	}
	pl["products.raw_hotspots"] = float64(lt.raw)
	pl["refine.refined_hotspots"] = float64(lt.refined)
	storeLayers(pl, svc.Strabon)
	pl["seviri.render_ms"] = mean(renderMs)
	pl["bench.glue_ms"] = ms(tr.selfTimes()["acquisition"]) / n
	pl["trace.overhead_ms"] = overheadMs
	pl["error_share"] = ratio(float64(rep.failed), float64(rep.attempted))
}

// storeLayers reads a store's public counters: plan-cache hit ratio,
// triples and dictionary size.
func storeLayers(pl map[string]float64, st strabon.API) {
	ps := st.PlanStats()
	pl["stsparql.plan_cache_hit_ratio"] = ratio(float64(ps.Hits), float64(ps.Hits+ps.Misses))
	pl["strabon.triples"] = float64(st.Len())
	if ds, ok := st.(strabon.DictStatser); ok {
		entries, bytes := ds.DictStats()
		pl["strabon.dict_entries"] = float64(entries)
		pl["strabon.dict_bytes"] = float64(bytes)
	}
}

// crossCheckDigest compares a window run's per-acquisition refined
// digests with the first window run of the same build and seed,
// acquisition or backlog alike: the sequential path over one store and
// the pipeline over a sharded store must refine identically. A run with
// no reference yet records its own.
func crossCheckDigest(rep *report, workload string, seed int64, times []time.Time, digests []string) {
	build, err := buildID()
	if err != nil {
		fmt.Printf("# digest cross-check skipped: %v\n", err)
		return
	}
	path := filepath.Join(traceDir, fmt.Sprintf("digest-%s-%d.txt", build, seed))
	if raw, err := os.ReadFile(path); err == nil {
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		from, want := lines[0], lines[1:]
		if len(want) != len(digests) {
			rep.fail("%s: %d digests in %s, %d acquisitions serviced", workload, len(want), path, len(digests))
			return
		}
		checkDigests(rep, workload+" versus "+from, times, want, digests)
		return
	}
	if rep.failed > 0 {
		return
	}
	body := workload + "\n" + strings.Join(digests, "\n") + "\n"
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		_ = os.WriteFile(path, []byte(body), 0o644) // a missing reference only skips the next comparison
	}
}

// buildID fingerprints the running binary, so digests recorded by an
// older build of the program are never compared with this one's.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	raw, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8]), nil
}
