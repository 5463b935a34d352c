package main

// titand-mix: a closed loop of mixClients clients, each sending its next
// POST /compile (FullOptions, run at p=4) only after the previous reply,
// to an in-process service.Server over loopback. The request stream is
// a seeded Zipf-shaped draw over generated units (see mixBlocks), so
// every stream has the same number of distinct sources (misses: compile,
// simulate, cache write) and of repeats (memory-tier hits), in seeded
// order. A small slice of
// "tune": true sources is tuned once and then served from the schedule
// cache (a second processor count) and the artifact cache.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/driver"
	"repro/internal/service"
)

// mixBlocks is the number of request blocks per run. A block is
// blockSources distinct sources, source k of rank r appearing
// max(1, round(0.7*blockSources/r)) times in seeded order: 454 requests
// of which 120 (26%) are misses, in every block of every run (15 blocks
// at 20 s, about 21 s of one client's requests on a 2-vCPU VM). The
// shape, the miss share and the tune slice are assumptions, not recorded
// traffic; README.md gives the reason for each value.
func mixBlocks(seconds int) int { return (3*seconds + 2) / 4 }

const blockSources = 120

// mixClients is the closed loop's client count. One client leaves the
// second vCPU of the 2-vCPU host to the server's own goroutines and to
// the collector (with nproc clients both vCPUs were saturated), and it
// runs the requests one at a time, so the process's CPU time while one
// is outstanding is that request's cost (see sliceStats).
const mixClients = 1

const (
	tuneSources  = 2
	tuneRepeats  = 6 // per tune source: one request at tuneAltProcs, five at mixProcs
	tuneAltProcs = 2
	mixProcs     = 4
)

type mixRequest struct {
	src   int
	procs int
}

type mixEnv struct {
	sources []unit
	tuned   []bool
	reqs    []mixRequest
	srv     *service.Server
	http    *http.Server
	url     string
	client  *http.Client
	served  chan struct{}
}

// buildMix generates the sources and the request stream for seed: the
// blocks in order, then the tune slice spread through the whole stream.
// Of a tune source's requests the first to arrive tunes, the first at
// the other processor count reuses the plan from the schedule cache, and
// the rest are artifact hits.
func buildMix(seed int64, seconds int) ([]unit, []bool, []mixRequest) {
	g := newGenerator(seed)
	rng := rand.New(rand.NewSource(seed + 2))
	var (
		sources []unit
		tuned   []bool
		reqs    []mixRequest
	)
	for b := 0; b < mixBlocks(seconds); b++ {
		var block []mixRequest
		ranks := rng.Perm(blockSources)
		for _, r := range ranks {
			i := len(sources)
			sources = append(sources, g.unit(fmt.Sprintf("m%04d", i), 1, unitSizes[i%len(unitSizes)]))
			tuned = append(tuned, false)
			for c := max(1, int(math.Round(0.7*blockSources/float64(r+1)))); c > 0; c-- {
				block = append(block, mixRequest{src: i, procs: mixProcs})
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		reqs = append(reqs, block...)
	}
	for t := 0; t < tuneSources; t++ {
		i := len(sources)
		sources = append(sources, g.unit(fmt.Sprintf("t%d", t), 1, unitSizes[t]))
		tuned = append(tuned, true)
		for c := 0; c < tuneRepeats; c++ {
			p := mixProcs
			if c == 1 {
				p = tuneAltProcs
			}
			at := rng.Intn(len(reqs) + 1)
			reqs = append(reqs[:at], append([]mixRequest{{src: i, procs: p}}, reqs[at:]...)...)
		}
	}
	return sources, tuned, reqs
}

// tracingHandler wraps the server's handler with one span per request,
// parented to the client's span (passed in headers).
type tracingHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
	op, _ := strconv.Atoi(r.Header.Get("X-Bench-Op"))
	id := h.tr.begin("service.Server.Handler", parent, op)
	defer h.tr.end(id)
	h.next.ServeHTTP(w, r)
}

// startMix starts the server and warms its connection pool and compile
// path with warm, a unit outside the stream. This is the workload's
// set-up; the stream itself is made beforehand.
func startMix(warm unit, tr *tracer) (*mixEnv, error) {
	env := &mixEnv{}
	srv, err := service.New(service.Config{Workers: workers()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.srv = srv
	env.http = &http.Server{Handler: srv.Handler()}
	if tr != nil {
		env.http.Handler = &tracingHandler{next: srv.Handler(), tr: tr}
	}
	env.url = "http://" + ln.Addr().String()
	env.served = make(chan struct{})
	go func() {
		defer close(env.served)
		_ = env.http.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	env.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers(), MaxConnsPerHost: workers()}}
	for c := 0; c < workers(); c++ {
		if _, _, err := env.post(unitJob(warm), mixProcs, false, 0, 0); err != nil {
			env.stop()
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
	}
	return env, nil
}

// stop shuts the HTTP server down, drains the service and waits for the
// serving goroutine.
func (env *mixEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = env.http.Shutdown(ctx) // a timeout here leaves nothing of ours running: Drain below waits for compiles
	_ = env.srv.Drain(ctx)
	env.client.CloseIdleConnections()
	<-env.served
}

// post sends one compile request for j and decodes the reply; size is
// the reply body's length.
func (env *mixEnv) post(j job, procs int, tuneIt bool, span, op int) (*service.CompileResponse, int, error) {
	body, err := json.Marshal(service.CompileRequest{
		Source:     j.src,
		Options:    service.CompileOptions{Inline: true, Vectorize: true, Parallelize: true, Tune: tuneIt},
		Processors: procs,
		Entry:      j.entry,
	})
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, env.url+"/compile", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set("X-Bench-Span", strconv.Itoa(span))
		req.Header.Set("X-Bench-Op", strconv.Itoa(op))
	}
	resp, err := env.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, len(blob), fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(blob))
	}
	var cr service.CompileResponse
	if err := json.Unmarshal(blob, &cr); err != nil {
		return nil, len(blob), err
	}
	return &cr, len(blob), nil
}

func (env *mixEnv) metrics() (service.MetricsResponse, error) {
	var m service.MetricsResponse
	resp, err := env.client.Get(env.url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// mixOutcome is one answered request: what the checks and metrics
// need of it, not the whole reply.
type mixOutcome struct {
	req       mixRequest
	ms, cpuMS float64 // client-side wall time; the process's CPU time
	size      int
	cached    bool
	tier      string
	key       string
	asm       [sha256.Size]byte
	asmInstrs int
	run       service.RunResult
	failure   string
}

func runTitandMix(cfg config) (*report, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	sources, tuned, reqs := buildMix(cfg.seed, cfg.seconds)
	env, setupS, err := timedSetup(func() (*mixEnv, error) { return startMix(warmUnit(), tr) }, (*mixEnv).stop)
	if err != nil {
		return nil, err
	}
	defer env.stop()
	env.sources, env.tuned, env.reqs = sources, tuned, reqs
	sl := &serviceLayer{}
	if sl.before, err = env.metrics(); err != nil {
		return nil, err
	}

	outcomes := make([]mixOutcome, len(env.reqs))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		gc   gcWindow
	)
	runtime.GC()
	gc.open()
	a0 := readCounter("/gc/heap/allocs:bytes")
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(env.reqs) {
					return
				}
				rq := env.reqs[i]
				j := unitJob(env.sources[rq.src])
				span := tr.begin("http.request", 0, i+1)
				c0, t0 := cpuNow(), time.Now()
				resp, size, err := env.post(j, rq.procs, env.tuned[rq.src], span, i+1)
				o := mixOutcome{req: rq, ms: ms(time.Since(t0)), cpuMS: ms(cpuNow() - c0), size: size}
				tr.end(span)
				if o.failure = checkReply(j, resp, err); o.failure == "" {
					o.cached, o.tier, o.key, o.asm = resp.Cached, resp.CacheTier, resp.Key, sha256.Sum256([]byte(resp.Asm))
					o.asmInstrs, o.run = asmInstrs(resp.Asm), *resp.Run
				}
				outcomes[i] = o
			}
		}()
	}
	wg.Wait()
	allocBytes := readCounter("/gc/heap/allocs:bytes") - a0
	gc.close(len(outcomes))
	if sl.after, err = env.metrics(); err != nil {
		return nil, err
	}

	rep := newReport()
	e := endToEnd{setupS: setupS, allocBytes: allocBytes, allocOps: len(outcomes)}
	var tl titanLayer
	misses := map[mixRequest]mixOutcome{}
	for _, o := range outcomes {
		rep.attempted++
		if o.failure != "" {
			rep.fail(false, env.sources[o.req.src].Name, o.failure)
			continue
		}
		switch {
		case !o.cached:
			misses[o.req] = o
			tl.addRun(&o.run)
			if o.req.procs == mixProcs {
				e.sim.add(o.run.Cycles, o.run.Instrs, o.run.HostNanos)
				e.codeSize += o.asmInstrs
			}
			sl.reply(false, o.ms, o.size)
		case o.tier == service.TierInflight:
			// Joined a compile in flight: neither a hit nor a miss of
			// its own, and how many there are depends on timing.
		default:
			sl.reply(true, o.ms, o.size)
		}
	}
	// Every hit must return the key and assembly of its miss.
	for _, o := range outcomes {
		if o.failure != "" || !o.cached {
			continue
		}
		m, ok := misses[o.req]
		if !ok {
			rep.wrong(env.sources[o.req.src].Name, "cache hit without a miss")
		} else if m.key != o.key || m.asm != o.asm {
			rep.wrong(env.sources[o.req.src].Name, "cache hit differs from its miss")
		}
	}
	if len(misses) == 0 {
		return nil, fmt.Errorf("no request answered")
	}
	if !cfg.trace {
		e.opP50, e.opP90, e.opsPerS = sliceStats(outcomes, mixBlocks(cfg.seconds))
		e.report(rep)
		return rep, nil
	}
	// The compile layers are measured over the first block's distinct
	// sources, compiled here as the server compiles them; the tuner is
	// called directly on the tune slice's sources.
	cl := newCompileLayers()
	for i := 0; i < blockSources; i++ {
		u := env.sources[i]
		if _, err := cl.compile(tr, rep, len(env.reqs)+i+1, u.Name, u.Src, driver.FullOptions()); err != nil {
			rep.wrong(u.Name, "traced compile: "+err.Error())
		}
	}
	for i, u := range env.sources {
		if env.tuned[i] {
			sl.tune(tr, rep, unitJob(u), len(env.reqs)+blockSources+i+1)
		}
	}
	cl.report(rep, tr.summary())
	tl.report(rep)
	gc.report(rep)
	sl.report(rep)
	return rep, tr.write("titand-mix", cfg.seed)
}

// sliceStats cuts the stream into n consecutive slices of requests (one
// block's worth each) and returns the medians over slices of the
// request time p50, its p90 and the goodput (correct replies over the
// slice's time): a stretch of the run in which the host is slow moves a
// few slices, not the medians. A request's time is the process's CPU
// time while it was outstanding; with one client that is the request's
// own cost (client, HTTP, service, compile or cache read, simulation,
// collector), without the CPU time the hypervisor took.
func sliceStats(outcomes []mixOutcome, n int) (p50, p90, rps float64) {
	var s50, s90, sRPS []float64
	for b := 0; b < n; b++ {
		var lat []float64
		var total float64
		for _, o := range outcomes[b*len(outcomes)/n : (b+1)*len(outcomes)/n] {
			total += o.cpuMS
			if o.failure == "" {
				lat = append(lat, o.cpuMS)
			}
		}
		if len(lat) == 0 {
			continue
		}
		s50 = append(s50, quantile(lat, 0.5))
		s90 = append(s90, quantile(lat, 0.9))
		sRPS = append(sRPS, float64(len(lat))/total*1e3)
	}
	return quantile(s50, 0.5), quantile(s90, 0.5), quantile(sRPS, 0.5)
}
