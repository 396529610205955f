package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/closedloop"
	"repro/internal/geom"
	"repro/internal/products"
	"repro/internal/resultcache"
	"repro/internal/shard"
	"repro/internal/strabon"
)

// The serve workload: the closedloop fixture (a day of acquisition
// history on a 4-slice sharded store) behind the served endpoint with
// its result cache and admission gate, on a loopback listener. Nproc
// clients replay a mix of 70% recurring hot queries and 30% one-off
// cold windows back to back, in chunks of chunkRequests, while a paced
// writer appends the live acquisition's product beside them. Each
// latency figure is the median over chunks of the chunk's quantile, so
// a burst of host noise in one chunk does not move it.
//
// A traced run also offers requests in an open loop at openLoopRate for
// openLoopTime, timing each from when it was due, to report how late
// the generator released them.
const (
	serveHistoryHours = 12
	serveSetUps       = 9
	hotShare          = 0.7
	chunkRequests     = 2000
	openLoopRate      = 500 // req/s
	openLoopTime      = 3 * time.Second
	writeInterval     = 20 * time.Millisecond
	// coldCheckEvery selects the cold responses re-checked after the run.
	coldCheckEvery = 10

	serveSlices = 4
	writerSlice = 1 // the slice of the writer's Day+13h bucket
	// closedloop.ColdQuery's windows: coldSpan long, starting coldOffset
	// into the day plus seq%coldWindows seconds.
	coldOffset  = 4 * time.Hour
	coldSpan    = 10 * time.Minute
	coldWindows = 28800
)

type serveFixture struct {
	store  *shard.Store
	ep     *strabon.Endpoint
	srv    *http.Server
	served chan struct{}
	base   string
}

func buildServeFixture() (*serveFixture, error) {
	st := shard.New(shard.Config{Slices: serveSlices, Width: time.Hour, Epoch: closedloop.Day()})
	closedloop.Seed(st, serveHistoryHours)
	ep := strabon.NewEndpoint(st)
	ep.Results = resultcache.New(1024, 64<<20)
	ep.Admission = strabon.NewAdmission(8, 64)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	f := &serveFixture{store: st, ep: ep, srv: &http.Server{Handler: ep}, served: make(chan struct{}),
		base: "http://" + ln.Addr().String()}
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(ln) // returns http.ErrServerClosed once close is called
	}()
	return f, nil
}

// close stops the server and waits for its accept loop to exit.
func (f *serveFixture) close() {
	f.srv.Close()
	<-f.served
}

// request is one planned request.
type request struct {
	hot  int // index into the hot set, or -1 for a cold query
	cold int // cold query sequence number
	url  string
}

// outcome is one request as the client saw it.
type outcome struct {
	req      request
	due      time.Time // when it was due: its schedule slot, or when a client picked it
	sent     time.Time // when the generator released it
	picked   time.Time // when a client started it
	done     time.Time
	serverUs int64 // the endpoint's X-Elapsed-Us
	rows     int
	err      error
}

// planner draws the request mix from the seed.
type planner struct {
	rng     *rand.Rand
	hotURLs []string
	nextSeq int
	base    string
	hotSent int
}

func (p *planner) next() request {
	if p.rng.Float64() < hotShare {
		k := p.rng.Intn(len(p.hotURLs))
		p.hotSent++
		return request{hot: k, url: p.hotURLs[k]}
	}
	p.nextSeq++
	for readsWriterSlice(p.nextSeq) {
		p.nextSeq++
	}
	return request{hot: -1, cold: p.nextSeq, url: p.base + "/sparql?query=" + url.QueryEscape(closedloop.ColdQuery(p.nextSeq))}
}

func (p *planner) plan(n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = p.next()
	}
	return reqs
}

// readsWriterSlice reports whether cold query seq's 10-minute window
// touches an hour bucket of slice 1, where the live writer appends. Those
// windows are skipped: each of the writer's ~50 products a second
// lands in slice 1, so a cold query reading it would slow down steadily
// through the run. Every other window still fans out over the sliced
// history.
func readsWriterSlice(seq int) bool {
	start := time.Duration(seq%coldWindows) * time.Second
	for _, t := range []time.Duration{coldOffset + start, coldOffset + start + coldSpan} {
		if int(t/time.Hour)%serveSlices == writerSlice {
			return true
		}
	}
	return false
}

// sleepUntil blocks the calling thread in the kernel until t. A direct
// nanosleep wakes within the kernel's timer slack, where a runtime
// timer can round sub-millisecond waits up to the poller's millisecond
// resolution.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// runRequests issues reqs over conns clients. With rate 0 it is a
// closed loop: each client sends its next request as soon as the last
// reply is read, and a request is timed from when a client picks it.
// With a rate it is an open loop: the generator releases requests on a
// fixed schedule without waiting for replies, a request whose clients
// are all busy queues, and its latency counts from when it was due.
func runRequests(client *http.Client, reqs []request, rate float64, conns int, tr *tracer, seq0 int) []outcome {
	outs := make([]outcome, len(reqs))
	// One slot per request: the generator must never block on a busy
	// client.
	jobs := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 32<<10)
			for i := range jobs {
				o := &outs[i]
				o.picked = time.Now()
				if rate == 0 {
					o.due, o.sent = o.picked, o.picked
				}
				o.rows, o.serverUs, o.err = fetch(client, o.req.url, buf)
				o.done = time.Now()
				if tr != nil {
					trace := strconv.Itoa(seq0 + i)
					root := tr.record(trace, "serve.request", 0, o.due, o.done)
					if rate > 0 {
						tr.record(trace, "generator.queue", root, o.due, o.picked)
					}
					tr.record(trace, "http.roundtrip", root, o.picked, o.done)
				}
			}
		}()
	}
	if rate == 0 {
		for i, r := range reqs {
			outs[i] = outcome{req: r}
			jobs <- i
		}
	} else {
		interval := time.Duration(float64(time.Second) / rate)
		start := time.Now().Add(2 * time.Millisecond)
		runtime.LockOSThread()
		for i, r := range reqs {
			due := start.Add(time.Duration(i) * interval)
			sleepUntil(due)
			outs[i] = outcome{req: r, due: due, sent: time.Now()}
			jobs <- i
		}
		runtime.UnlockOSThread()
	}
	close(jobs)
	wg.Wait()
	return outs
}

// fetch issues one query and reads the whole response into buf,
// returning the number of result rows and the endpoint's own elapsed
// time. Rows are counted while reading, without decoding, so the load
// generator allocates little beside the system it measures.
func fetch(client *http.Client, u string, buf []byte) (rows int, serverUs int64, err error) {
	resp, err := client.Get(u)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var rc rowCounter
	for {
		n, readErr := resp.Body.Read(buf)
		rc.scan(buf[:n])
		if readErr == io.EOF {
			break
		}
		if readErr != nil {
			return 0, 0, readErr
		}
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	if rc.depth != 0 {
		return 0, 0, fmt.Errorf("truncated result document")
	}
	if msg := resp.Trailer.Get("X-Error"); msg != "" {
		return 0, 0, fmt.Errorf("stream error: %s", msg)
	}
	elapsed := resp.Trailer.Get("X-Elapsed-Us")
	if elapsed == "" {
		elapsed = resp.Header.Get("X-Elapsed-Us")
	}
	serverUs, _ = strconv.ParseInt(elapsed, 10, 64)
	return rc.rows, serverUs, nil
}

// rowCounter counts the binding objects of a SPARQL JSON results
// document: {"head":..,"results":{"bindings":[{row},{row}]}} puts each
// row's opening brace at nesting depth 3.
type rowCounter struct {
	depth, rows      int
	inString, escape bool
}

func (c *rowCounter) scan(p []byte) {
	for _, b := range p {
		switch {
		case c.escape:
			c.escape = false
		case c.inString:
			c.escape = b == '\\'
			c.inString = b != '"'
		case b == '"':
			c.inString = true
		case b == '{' || b == '[':
			if b == '{' && c.depth == 3 {
				c.rows++
			}
			c.depth++
		case b == '}' || b == ']':
			c.depth--
		}
	}
}

// chunkStats summarises one chunk of requests.
type chunkStats struct {
	p50, p90       float64 // ms, successful requests
	rate           float64 // completed requests per second
	hot, cold      []float64
	server, httpMs []float64
	late           []float64
}

// judge checks and summarises a chunk. A request that failed or
// returned a hot query's row count other than the pre-run evaluation's
// is a failed operation; every 10th cold response's row count is kept
// for the check after the run.
func judge(outs []outcome, rep *report, hotRows []int, coldSeen map[int]int) chunkStats {
	var cs chunkStats
	first, last := outs[0].due, outs[0].done
	for i := range outs {
		o := &outs[i]
		rep.attempted++
		if o.due.Before(first) {
			first = o.due
		}
		if o.done.After(last) {
			last = o.done
		}
		switch {
		case o.err != nil:
			rep.fail("request %s: %v", o.req.url, o.err)
			continue
		case o.req.hot >= 0 && o.rows != hotRows[o.req.hot]:
			rep.fail("hot query %d: %d rows, want %d", o.req.hot, o.rows, hotRows[o.req.hot])
			continue
		}
		lat := ms(o.done.Sub(o.due))
		if o.req.hot >= 0 {
			cs.hot = append(cs.hot, lat)
		} else {
			cs.cold = append(cs.cold, lat)
			if o.req.cold%coldCheckEvery == 0 {
				coldSeen[o.req.cold] = o.rows
			}
		}
		cs.server = append(cs.server, float64(o.serverUs)/1000)
		cs.httpMs = append(cs.httpMs, ms(o.done.Sub(o.picked))-float64(o.serverUs)/1000)
		cs.late = append(cs.late, ms(o.sent.Sub(o.due)))
	}
	all := append(append([]float64{}, cs.hot...), cs.cold...)
	cs.p50, cs.p90 = median(all), quantile(all, 0.9)
	cs.rate = ratio(float64(len(all)), last.Sub(first).Seconds())
	return cs
}

// merge appends another chunk's samples, for the per-layer split.
func (cs *chunkStats) merge(o chunkStats) {
	cs.hot = append(cs.hot, o.hot...)
	cs.cold = append(cs.cold, o.cold...)
	cs.server = append(cs.server, o.server...)
	cs.httpMs = append(cs.httpMs, o.httpMs...)
	cs.late = append(cs.late, o.late...)
}

// writer appends one live product per interval, pinned like
// closedloop.StartWriter inside the Day+13h bucket, away from every
// window the readers query, and times each InsertAll.
type writer struct {
	st   strabon.API
	stop chan struct{}
	done chan struct{}
	tr   *tracer

	mu     sync.Mutex
	starts []time.Time
	lat    []float64 // ms
}

func startWriter(st strabon.API, tr *tracer) *writer {
	w := &writer{st: st, stop: make(chan struct{}), done: make(chan struct{}), tr: tr}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(writeInterval)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
			at := closedloop.Day().Add(13*time.Hour + time.Duration(i%12)*5*time.Minute)
			p := &products.Product{Sensor: "MSG1", Chain: "loop", AcquiredAt: at}
			p.Hotspots = append(p.Hotspots, products.Hotspot{
				ID: fmt.Sprintf("bw%d", i), Geometry: geom.NewSquare(3, 5, 0.5),
				Confidence: 1.0, AcquiredAt: at, Sensor: "MSG1", Chain: "loop", Producer: "noa",
			})
			triples := p.Triples()
			start := time.Now()
			w.st.InsertAll(triples)
			end := time.Now()
			w.tr.record("writer", "shard.insert_all", 0, start, end)
			w.mu.Lock()
			w.starts = append(w.starts, start)
			w.lat = append(w.lat, ms(end.Sub(start)))
			w.mu.Unlock()
		}
	}()
	return w
}

// halt stops the writer and waits for it to exit.
func (w *writer) halt() {
	close(w.stop)
	<-w.done
}

// between returns the insert latencies of writes started in [from, to).
func (w *writer) between(from, to time.Time) []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []float64
	for i, s := range w.starts {
		if !s.Before(from) && s.Before(to) {
			out = append(out, w.lat[i])
		}
	}
	return out
}

func runServe(cfg runConfig) (*report, error) {
	rep := newReport()
	var (
		setups []float64
		fx     *serveFixture
	)
	host := newHostClock()
	for i := 0; i < serveSetUps; i++ {
		runtime.GC() // each set-up starts from a collected heap
		host.sample()
		start := time.Now()
		f, err := buildServeFixture()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if fx != nil {
			fx.close()
		}
		fx = f
	}
	defer fx.close()

	// The evaluation every hot response is checked against.
	hot := closedloop.HotQueries()
	hotRows := make([]int, len(hot))
	hotURLs := make([]string, len(hot))
	for k, q := range hot {
		res, err := strabon.MaterialiseQuery(context.Background(), fx.store, q)
		if err != nil {
			return nil, fmt.Errorf("hot query %d: %w", k, err)
		}
		hotRows[k] = len(res.Rows)
		hotURLs[k] = fx.base + "/sparql?query=" + url.QueryEscape(q)
	}

	conns := runtime.NumCPU()
	transport := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	pl := &planner{rng: rand.New(rand.NewSource(cfg.seed)), hotURLs: hotURLs, base: fx.base,
		nextSeq: int(cfg.seed%1000) * 20}
	coldSeen := map[int]int{}
	seq := 0
	w := startWriter(fx.store, cfg.tracer)
	chunk := func(tr *tracer) (chunkStats, []float64) {
		reqs := pl.plan(chunkRequests)
		from := time.Now()
		outs := runRequests(client, reqs, 0, conns, tr, seq)
		seq += len(reqs)
		return judge(outs, rep, hotRows, coldSeen), w.between(from, time.Now())
	}
	chunk(nil) // fills the result cache and the connection pool

	// A traced run measures its first half untraced, for the end-to-end
	// figures and the tracing overhead, and its second half traced. Each
	// chunk's figures leave out the time stolen from the host during it
	// (see running); the host's speed is sampled after each chunk, and
	// the figures are reported on the nominal host (see hostClock).
	var (
		p50s, p90s, rates, writeP90s []float64
		tracedP50s                   []float64
		traced                       chunkStats
		tracedHost                   = newHostClock()
	)
	start := time.Now()
	untracedEnd, deadline := start.Add(cfg.budget), start.Add(cfg.budget)
	if cfg.tracing {
		untracedEnd = start.Add(cfg.budget / 2)
	}
	for last := time.Duration(0); time.Now().Add(last).Before(deadline); {
		chunkStart, ticks := time.Now(), readTicks()
		if chunkStart.Before(untracedEnd) {
			cs, writes := chunk(nil)
			k := running(ticks, readTicks())
			host.sample()
			p50s, p90s, rates = append(p50s, cs.p50*k), append(p90s, cs.p90*k), append(rates, cs.rate/k)
			writeP90s = append(writeP90s, quantile(writes, 0.9)*k)
		} else {
			cs, _ := chunk(cfg.tracer)
			k := running(ticks, readTicks())
			tracedHost.sample()
			tracedP50s = append(tracedP50s, cs.p50*k)
			traced.merge(cs)
		}
		last = time.Since(chunkStart)
	}
	var open chunkStats
	if cfg.tracing {
		reqs := pl.plan(int(openLoopRate * openLoopTime.Seconds()))
		open = judge(runRequests(client, reqs, openLoopRate, conns, cfg.tracer, seq), rep, hotRows, coldSeen)
		seq += len(reqs)
	}
	w.halt()
	fmt.Printf("# %d chunks of %d requests over %d clients, %d writes; less stolen time p50 %.3f ms, p90 %.3f ms, %.0f req/s; %s\n",
		len(p50s)+len(tracedP50s), chunkRequests, conns, len(w.lat), median(p50s), median(p90s), median(rates), host)

	// Re-check the sampled cold responses against a direct evaluation;
	// the writer never touches their windows.
	var coldMs []float64
	for cold, rows := range coldSeen {
		start := time.Now()
		res, err := strabon.MaterialiseQuery(context.Background(), fx.store, closedloop.ColdQuery(cold))
		coldMs = append(coldMs, ms(time.Since(start)))
		rep.attempted++
		switch {
		case err != nil:
			rep.fail("cold query %d: direct evaluation: %v", cold, err)
		case len(res.Rows) != rows:
			rep.fail("cold query %d: served %d rows, direct evaluation %d", cold, rows, len(res.Rows))
		}
	}

	f := host.speed()
	if cfg.tracing {
		serveLayers(rep, fx, traced, open, w, coldMs, pl, median(tracedP50s)*tracedHost.speed()-median(p50s)*f)
	}
	rep.endToEnd["setup_s"] = median(setups) * host.whole()
	rep.endToEnd["p50_ms"] = median(p50s) * f
	rep.endToEnd["p90_ms"] = median(p90s) * f
	rep.endToEnd["ops_per_s"] = median(rates) / f
	rep.endToEnd["write_p90_ms"] = median(writeP90s) * f
	rep.aliases["p50_ms"] = "serve_p50_ms"
	rep.aliases["p90_ms"] = "serve_p90_ms"
	rep.aliases["ops_per_s"] = "served requests per second"
	rep.aliases["write_p90_ms"] = "serve_write_p90_ms"
	traced, open, coldSeen, w = chunkStats{}, chunkStats{}, nil, nil
	rep.endToEnd["heap_mb"] = liveHeapMB()
	return rep, nil
}

// serveLayers fills the per-layer metrics of a traced serve run from
// the traced chunks, the open-loop probe and the tiers' public
// counters.
func serveLayers(rep *report, fx *serveFixture, cs, open chunkStats, w *writer, coldMs []float64, pl *planner, overheadMs float64) {
	m := rep.perLayer
	rc := fx.ep.Results.Stats()
	m["resultcache.hit_ratio"] = ratio(float64(rc.Hits), float64(pl.hotSent))
	m["resultcache.evictions"] = float64(rc.Evictions)
	m["resultcache.invalidations"] = float64(rc.Invalidations)
	as := fx.ep.Admission.Stats()
	m["admission.rejected"] = float64(as.Rejected)
	m["admission.timed_out"] = float64(as.TimedOut)
	m["endpoint.server_p50_ms"] = median(cs.server)
	m["http.overhead_p50_ms"] = median(cs.httpMs)
	m["engine.cold_query_ms"] = median(coldMs)
	m["generator.late_p50_ms"] = median(open.late)
	m["generator.late_p90_ms"] = quantile(open.late, 0.9)
	m["serve.open_loop_p50_ms"] = open.p50
	m["serve.open_loop_p90_ms"] = open.p90
	m["serve.hot_p50_ms"] = median(cs.hot)
	m["serve.cold_p50_ms"] = median(cs.cold)
	m["serve.cold_p90_ms"] = quantile(cs.cold, 0.9)
	m["serve.p99_ms"] = quantile(append(append([]float64{}, cs.hot...), cs.cold...), 0.99)
	m["shard.insert_ms"] = mean(w.lat)
	storeLayers(m, fx.store)
	shardLayers(m, fx.store)
	m["trace.overhead_ms"] = overheadMs
	m["error_share"] = ratio(float64(rep.failed), float64(rep.attempted))
}
