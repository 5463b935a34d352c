package main

// Figures shared by the workloads. Every workload reports every
// end-to-end metric and, traced, every per-layer metric (the lists in
// main.go), each measured on the workload's own inputs: what an
// operation is differs per workload (README.md), the measurement does
// not. The layers a workload's timed work does not drive are driven by
// its traced run over some of its inputs: compileLayers.compile for the
// compile layers, probeService for the service and the tuner.

import (
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/driver"
	"repro/internal/service"
	"repro/internal/titan"
	"repro/internal/tune"
)

// job is one program a workload compiles and runs through an entry,
// with the exit value and output computed apart from the compiler.
type job struct {
	name, src, entry string
	exit             int64
	out              string
}

func unitJob(u unit) job     { return job{u.Name, u.Src, u.Entries[0].Name, u.Entries[0].Want, ""} }
func kernelJob(k kernel) job { return job{k.name, k.src, "main", k.exit, k.out} }

// warmUnit is the fixed 24-procedure unit set-up warms the compiler and
// the service with, so set-up does the same work whatever the seed.
func warmUnit() unit { return newGenerator(warmSeed).unit("warm", bigProcs, 128) }

// endToEnd holds a run's end-to-end figures.
type endToEnd struct {
	setupS       float64
	opP50, opP90 float64 // host time per operation, ms
	opsPerS      float64
	sim          simTotals
	allocBytes   float64
	allocOps     int
	codeSize     int
}

// simTotals sums the simulated runs whose code is the workload's
// output: cycles for the geomean, instructions over host time.
type simTotals struct {
	logCycles      float64
	runs           int
	instrs, hostNS int64
}

func (s *simTotals) add(cycles, instrs, hostNS int64) {
	s.logCycles += math.Log(float64(cycles))
	s.runs++
	s.instrs += instrs
	s.hostNS += hostNS
}

// ops sets the operation figures from one host time per operation.
func (e *endToEnd) ops(opMS []float64) {
	var total float64
	for _, x := range opMS {
		total += x
	}
	e.opP50, e.opP90, e.opsPerS = quantile(opMS, 0.5), quantile(opMS, 0.9), float64(len(opMS))/total*1e3
}

func (e *endToEnd) report(rep *report) {
	rep.set("setup_s", e.setupS, "s")
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	rep.set("op_ms.p50", e.opP50, "ms")
	rep.set("op_ms.p90", e.opP90, "ms")
	rep.set("ops_per_s", e.opsPerS, "1/s")
	rep.set("sim_minstr_per_s", float64(e.sim.instrs)/float64(e.sim.hostNS)*1e3, "Minstr/s")
	rep.set("sim_cycles.geomean", math.Exp(e.sim.logCycles/float64(e.sim.runs)), "cycles")
	rep.set("alloc_mb_per_op", e.allocBytes/float64(e.allocOps)/1e6, "MB")
	rep.set("code_size_instrs", float64(e.codeSize), "instrs")
}

// compileLayers accumulates the compile layers' figures over traced
// compiles (tracedCompile), each checked against an untraced one.
type compileLayers struct {
	compiles             int
	passMS               map[string][]float64
	ilStmts              []float64
	hits, misses         uint64
	staticInstrs         int
	tracedMS, untracedMS []float64
}

func newCompileLayers() *compileLayers { return &compileLayers{passMS: map[string][]float64{}} }

// compile makes one traced compile of src as operation op, then the
// untraced driver.CompileWith of the same source: the reference the
// traced composition must reproduce and the base of the tracing
// overhead. A difference between the two makes the run incorrect.
func (cl *compileLayers) compile(tr *tracer, rep *report, op int, name, src string, opts driver.Options) (*driver.Result, error) {
	start := time.Now()
	res, err := tracedCompile(tr, op, src, opts)
	d := time.Since(start)
	start = time.Now()
	ref, rerr := driver.CompileWith(src, opts, singleThread())
	dRef := time.Since(start)
	switch {
	case (err == nil) != (rerr == nil):
		rep.wrong(name, fmt.Sprintf("traced compile error %v, untraced %v", err, rerr))
	case err == nil && driver.Disassemble(ref) != driver.Disassemble(res):
		rep.wrong(name, "traced compile emitted different assembly")
	}
	if err != nil {
		return nil, err
	}
	cl.compiles++
	cl.tracedMS = append(cl.tracedMS, ms(d))
	cl.untracedMS = append(cl.untracedMS, ms(dRef))
	for _, p := range res.Report.Passes {
		cl.passMS[p.Name] = append(cl.passMS[p.Name], ms(p.Duration))
	}
	if n := len(res.Report.Passes); n > 0 {
		cl.ilStmts = append(cl.ilStmts, float64(res.Report.Passes[n-1].StmtsAfter))
	}
	a := res.Report.Analysis
	cl.hits += a.DataflowHits + a.LivenessHits + a.DependHits
	cl.misses += a.DataflowMisses + a.LivenessMisses + a.DependMisses
	cl.staticInstrs += staticInstrs(res.Machine)
	return res, nil
}

func (cl *compileLayers) report(rep *report, sum map[string]*layerTimes) {
	perSpan := func(name string) float64 {
		if lt := sum[name]; lt != nil && lt.count > 0 {
			return ms(lt.total) / float64(lt.count)
		}
		return 0
	}
	rep.set("parser.parse_ms", perSpan("parser.ParseWorkers"), "ms")
	rep.set("sema.check_ms", perSpan("sema.CheckWorkers"), "ms")
	rep.set("lower.lower_ms", perSpan("lower.FileWorkers"), "ms")
	rep.set("codegen.generate_ms", perSpan("codegen.Generate"), "ms")
	rep.set("codegen.schedule_ms", perSpan("codegen.Schedule"), "ms")
	rep.set("codegen.static_instrs", float64(cl.staticInstrs)/float64(cl.compiles), "instrs")
	for _, name := range passNames {
		rep.set("pass."+name+"_ms", mean(cl.passMS[name]), "ms")
	}
	rep.set("pass.il_stmts", mean(cl.ilStmts), "stmts")
	rep.set("analysis.hit_ratio", float64(cl.hits)/float64(cl.hits+cl.misses), "ratio")
	if lt := sum["compile"]; lt != nil && lt.count > 0 {
		rep.set("trace.compile_uncovered_ms", ms(lt.self)/float64(lt.count), "ms")
	}
	rep.set("trace.overhead_pct", 100*(quantile(cl.tracedMS, 0.5)/quantile(cl.untracedMS, 0.5)-1), "%")
}

// titanLayer accumulates simulated runs: host time and the engine's
// counters.
type titanLayer struct {
	runMS                                []float64
	hostNS, instrs, syncStalls, joinIdle int64
	maskActive, maskTotal                int64
}

func (tl *titanLayer) add(r titan.Result, d time.Duration) {
	var idle int64
	for _, p := range r.Procs {
		idle += p.JoinIdle
	}
	tl.addCounts(d.Nanoseconds(), r.Instrs, r.SyncStalls, idle, r.MaskLanesActive, r.MaskLanesTotal)
}

// addRun folds in a run the service made and reported.
func (tl *titanLayer) addRun(r *service.RunResult) {
	var idle int64
	for _, p := range r.Procs {
		idle += p.JoinIdle
	}
	tl.addCounts(r.HostNanos, r.Instrs, r.SyncStalls, idle, r.MaskLanesActive, r.MaskLanesTotal)
}

func (tl *titanLayer) addCounts(hostNS, instrs, sync, idle, active, total int64) {
	tl.runMS = append(tl.runMS, float64(hostNS)/1e6)
	tl.hostNS += hostNS
	tl.instrs += instrs
	tl.syncStalls += sync
	tl.joinIdle += idle
	tl.maskActive += active
	tl.maskTotal += total
}

func (tl *titanLayer) report(rep *report) {
	n := float64(len(tl.runMS))
	rep.set("titan.run_ms.p50", quantile(tl.runMS, 0.5), "ms")
	rep.set("titan.ns_per_instr", float64(tl.hostNS)/float64(tl.instrs), "ns")
	rep.set("titan.sync_stall_cycles", float64(tl.syncStalls)/n, "cycles")
	rep.set("titan.join_idle_cycles", float64(tl.joinIdle)/n, "cycles")
	rep.set("titan.mask_lane_util", float64(tl.maskActive)/float64(max(tl.maskTotal, 1)), "ratio")
}

// gcWindow sums the collector's cycles and CPU share over the stretches
// of a run it is opened around. Each stretch starts after a collection
// and ends with a forced one (not counted), so it sees the garbage of
// its own operations and not of the checks around it.
type gcWindow struct {
	cycles, gcCPU, cpu float64
	ops                int
	c0, g0, u0         float64
}

func (w *gcWindow) open() {
	w.c0 = readCounter("/gc/cycles/total:gc-cycles")
	w.g0 = readCounter("/cpu/classes/gc/total:cpu-seconds")
	w.u0 = readCounter("/cpu/classes/total:cpu-seconds")
}

// close ends the stretch, which held ops operations, and returns the
// freed memory to the OS, so peak RSS follows what one stretch needs.
func (w *gcWindow) close(ops int) {
	debug.FreeOSMemory()
	w.cycles += readCounter("/gc/cycles/total:gc-cycles") - w.c0 - 1
	w.gcCPU += readCounter("/cpu/classes/gc/total:cpu-seconds") - w.g0
	w.cpu += readCounter("/cpu/classes/total:cpu-seconds") - w.u0
	w.ops += ops
}

func (w *gcWindow) report(rep *report) {
	rep.set("go.gc_cycles_per_op", w.cycles/float64(w.ops), "count")
	rep.set("go.gc_cpu_fraction", w.gcCPU/w.cpu, "ratio")
}

// serviceLayer accumulates the service's replies and the tuner's runs.
type serviceLayer struct {
	hitMS, missMS, sizes []float64
	before, after        service.MetricsResponse
	tuneMS, cands        []float64
}

func (sl *serviceLayer) reply(cached bool, msec float64, size int) {
	sl.sizes = append(sl.sizes, float64(size))
	if cached {
		sl.hitMS = append(sl.hitMS, msec)
	} else {
		sl.missMS = append(sl.missMS, msec)
	}
}

// tune calls the tuner directly on j, so its span and candidate count
// are the layer's own.
func (sl *serviceLayer) tune(tr *tracer, rep *report, j job, op int) {
	id := tr.begin("tune.Tune", 0, op)
	start := time.Now()
	res, err := tune.Tune(j.src, driver.FullOptions(), tune.Config{Processors: mixProcs, Entry: j.entry})
	sl.tuneMS = append(sl.tuneMS, ms(time.Since(start)))
	tr.end(id)
	if err != nil {
		rep.wrong(j.name, "tune: "+err.Error())
		return
	}
	sl.cands = append(sl.cands, float64(res.Measured))
}

func (sl *serviceLayer) report(rep *report) {
	rep.set("service.hit_ms.p50", quantile(sl.hitMS, 0.5), "ms")
	rep.set("service.miss_ms.p50", quantile(sl.missMS, 0.5), "ms")
	a, b := sl.after.Compiles, sl.before.Compiles
	rep.set("service.hit_ratio", float64(a.CacheHits-b.CacheHits)/float64(a.Total-b.Total), "ratio")
	rep.set("service.response_kb", mean(sl.sizes)/1024, "KB")
	for _, name := range passNames {
		a, b := sl.after.Passes[name], sl.before.Passes[name]
		v := 0.0
		if runs := a.Runs - b.Runs; runs > 0 {
			v = float64(a.TotalNS-b.TotalNS) / float64(runs) / 1e6
		}
		rep.set("service.pass_ms."+name, v, "ms")
	}
	rep.set("tune.tune_ms", quantile(sl.tuneMS, 0.5), "ms")
	rep.set("tune.candidates", mean(sl.cands), "count")
}

// checkReply compares a /compile reply with the job's expected result
// and returns the mismatch as a reason.
func checkReply(j job, resp *service.CompileResponse, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case resp.Run == nil:
		return "no run result"
	case resp.Run.ExitCode != j.exit || resp.Run.Output != j.out:
		return fmt.Sprintf("exit %d output %q, want exit %d output %q", resp.Run.ExitCode, resp.Run.Output, j.exit, j.out)
	}
	return ""
}

// probeJobs is how many of its inputs a traced run sends through the
// service when its timed work does not.
const probeJobs = 6

// probeService drives the service and the tuner in a traced run whose
// timed work does not: a server started as titand-mix starts it gets
// each of the first probeJobs jobs twice, a miss and then a hit that
// must carry the miss's key and assembly, and the first job is tuned.
func probeService(tr *tracer, rep *report, jobs []job, opBase int) (*serviceLayer, error) {
	env, err := startMix(warmUnit(), tr)
	if err != nil {
		return nil, err
	}
	defer env.stop()
	sl := &serviceLayer{}
	if sl.before, err = env.metrics(); err != nil {
		return nil, err
	}
	jobs = jobs[:min(probeJobs, len(jobs))]
	for i, j := range jobs {
		op := opBase + i + 1
		var first *service.CompileResponse
		for k := 0; k < 2; k++ {
			span := tr.begin("http.request", 0, op)
			start := time.Now()
			resp, size, err := env.post(j, mixProcs, false, span, op)
			d := time.Since(start)
			tr.end(span)
			if reason := checkReply(j, resp, err); reason != "" {
				rep.wrong("probe "+j.name, reason)
				break
			}
			if resp.Cached != (k == 1) {
				rep.wrong("probe "+j.name, fmt.Sprintf("request %d: cached %v", k+1, resp.Cached))
			}
			if first == nil {
				first = resp
			} else if resp.Key != first.Key || resp.Asm != first.Asm {
				rep.wrong("probe "+j.name, "cache hit differs from its miss")
			}
			sl.reply(resp.Cached, ms(d), size)
		}
	}
	if sl.after, err = env.metrics(); err != nil {
		return nil, err
	}
	sl.tune(tr, rep, jobs[0], opBase+len(jobs)+1)
	return sl, nil
}

// asmInstrs counts the instruction lines of a disassembly
// (driver.Disassemble indents instructions; labels are not).
func asmInstrs(asm string) int {
	return strings.Count(asm, "\n    ")
}
