package main

// compile-corpus: compiles the seeded corpus under the paper's two
// configurations on one thread and checks every procedure's exit value
// against the evaluator. The front end, the mid-end and codegen do the
// timed work; the simulator only checks results, outside the timers.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"repro/internal/codegen"
	"repro/internal/driver"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/pass"
	"repro/internal/sema"
	"repro/internal/titan"
)

// compileConfig is one of the paper's two configurations and the
// processor count its code is checked at.
type compileConfig struct {
	name  string
	opts  driver.Options
	procs int
}

var compileConfigs = []compileConfig{
	{"scalar", driver.ScalarOptions(), 1},
	{"full", driver.FullOptions(), 4},
}

// corpusUnits is the number of generated units per run; each run
// compiles every unit corpusRounds times under each configuration.
func corpusUnits(seconds int) int { return 15 * seconds }

// corpusRounds passes over the corpus are spread across the run; an
// operation's compile time is its fastest pass, so a stretch of the run
// in which the host is slow does not move the percentiles.
const corpusRounds = 3

// chunkOps is how many compile operations run between checks.
const chunkOps = 32

func singleThread() *pass.Context {
	ctx := pass.NewContext()
	ctx.Workers = 1
	return ctx
}

// readCounter reads one cumulative runtime/metrics value.
func readCounter(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}

func staticInstrs(tp *titan.Program) int {
	n := 0
	for _, f := range tp.Funcs {
		n += len(f.Instrs)
	}
	return n
}

func runCompileCorpus(cfg config) (*report, error) {
	units := newGenerator(cfg.seed).corpus("u", corpusUnits(cfg.seconds), true)
	jobs := make([]job, len(units))
	for i, u := range units {
		jobs[i] = unitJob(u)
	}
	units = append(units, faultUnits()...)
	// Set-up warms the compiler with a unit of the large synthetic size:
	// lazy initialisation and the allocator's caches fill before the
	// timers start.
	warm := warmUnit()
	_, setupS, err := timedSetup(func() (struct{}, error) {
		for _, c := range compileConfigs {
			if _, err := driver.CompileWith(warm.Src, c.opts, singleThread()); err != nil {
				return struct{}{}, fmt.Errorf("warm-up compile: %w", err)
			}
		}
		return struct{}{}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	var tr *tracer
	rounds := corpusRounds
	if cfg.trace {
		// A traced run reports no compile times of its own, so one pass
		// over the corpus is enough.
		tr, rounds = newTracer(), 1
	}

	// Operations run in chunks: compile a chunk, keeping only the machine
	// code, then check it. Each compile window is bracketed by garbage
	// collections, so the GC figures and the compile times see the
	// compiler's own garbage and not the checks' (every simulated machine
	// holds a 16 MiB memory image).
	type operation struct {
		u    *unit
		c    compileConfig
		prog *titan.Program
	}
	var ops []operation
	for i := range units {
		for _, c := range compileConfigs {
			ops = append(ops, operation{u: &units[i], c: c})
		}
	}
	var (
		e        = endToEnd{setupS: setupS}
		cl       = newCompileLayers()
		tl       titanLayer
		gc       gcWindow
		best     = make([]time.Duration, len(ops))
		failedOp = make([]bool, len(ops))
	)
	for round := 0; round < rounds; round++ {
		first := round == 0
		for lo := 0; lo < len(ops); lo += chunkOps {
			chunk := ops[lo:min(lo+chunkOps, len(ops))]
			runtime.GC()
			gc.open()
			for k := range chunk {
				o := &chunk[k]
				u, c, op := o.u, o.c, lo+k
				var (
					res *driver.Result
					err error
				)
				a0 := readCounter("/gc/heap/allocs:bytes")
				c0 := cpuNow()
				if tr == nil {
					res, err = driver.CompileWith(u.Src, c.opts, singleThread())
				} else {
					res, err = cl.compile(tr, rep, op+1, u.Name+"/"+c.name, u.Src, c.opts)
				}
				d := cpuNow() - c0
				e.allocBytes += readCounter("/gc/heap/allocs:bytes") - a0
				e.allocOps++
				if !first {
					if (err != nil) != failedOp[op] {
						rep.wrong(u.Name+"/"+c.name, fmt.Sprintf("compile outcome changed between passes: %v", err))
					}
					if err == nil {
						best[op] = min(best[op], d)
					}
					continue
				}
				rep.attempted++
				if err != nil {
					failedOp[op] = true
					reason := "compile: " + err.Error()
					rep.fail(knownFault(u.Name, c.name, reason), u.Name+"/"+c.name, reason)
					continue
				}
				best[op] = d
				if c.name == "full" {
					e.codeSize += staticInstrs(res.Machine)
				}
				o.prog = res.Machine
			}
			gc.close(len(chunk))

			for k, o := range chunk {
				if o.prog == nil {
					continue // not a first pass, or failed to compile
				}
				chunk[k].prog = nil
				full := o.c.name == "full"
				if reason := checkEntries(o.prog, *o.u, o.c.procs, tr, func(r titan.Result, d time.Duration) {
					tl.add(r, d)
					if full {
						e.sim.add(r.Cycles, r.Instrs, d.Nanoseconds())
					}
				}); reason != "" {
					rep.fail(knownFault(o.u.Name, o.c.name, reason), o.u.Name+"/"+o.c.name, reason)
				}
				// Return the machine's image to the OS: peak RSS then follows
				// the compiler's heap, not where the GC left 16 MiB spans.
				debug.FreeOSMemory()
			}
		}
	}
	var opMS []float64
	for op, d := range best {
		if !failedOp[op] {
			opMS = append(opMS, ms(d))
		}
	}
	if len(opMS) == 0 {
		return nil, fmt.Errorf("no unit compiled")
	}
	if !cfg.trace {
		e.ops(opMS)
		e.report(rep)
		return rep, nil
	}
	sl, err := probeService(tr, rep, jobs, len(ops))
	if err != nil {
		return nil, err
	}
	cl.report(rep, tr.summary())
	tl.report(rep)
	gc.report(rep)
	sl.report(rep)
	return rep, tr.write("compile-corpus", cfg.seed)
}

// passNames are the mid-end passes the per-layer metrics name.
var passNames = []string{pass.PassInline, pass.PassScalar, pass.PassNest, pass.PassIfConvert,
	pass.PassVectorize, pass.PassParallelize, pass.PassStrength, pass.PassCleanup}

// checkEntries runs every entry of u and compares its exit value (and
// empty output) with the evaluator's; seen, if not nil, receives each
// successful result and its CPU time. The entries share one machine,
// each starting from a fresh processor: every generated procedure
// initialises what it reads, and a machine carries a 16 MiB memory
// image. It returns the first mismatch as a reason.
func checkEntries(tp *titan.Program, u unit, procs int, tr *tracer, seen func(titan.Result, time.Duration)) string {
	m := titan.NewMachine(tp, procs)
	for _, e := range u.Entries {
		id := tr.begin("titan.Machine.Run", 0, 0)
		c0 := cpuNow()
		r, err := m.Run(e.Name)
		d := cpuNow() - c0
		tr.end(id)
		if err != nil {
			return fmt.Sprintf("entry %s: run: %v", e.Name, err)
		}
		if r.ExitCode != e.Want || r.Output != "" {
			return fmt.Sprintf("entry %s: exit %d output %q, want exit %d", e.Name, r.ExitCode, r.Output, e.Want)
		}
		if seen != nil {
			seen(r, d)
		}
	}
	return ""
}

// tracedCompile composes the calls driver.CompileWith makes, one span
// around each layer's public function, on one thread.
func tracedCompile(tr *tracer, op int, src string, opts driver.Options) (*driver.Result, error) {
	root := tr.begin("compile", 0, op)
	defer tr.end(root)
	step := func(name string, f func() error) error {
		id := tr.begin(name, root, op)
		defer tr.end(id)
		return f()
	}
	res := &driver.Result{}
	var (
		ast  = res.AST
		info *sema.Info
	)
	if err := step("parser.ParseWorkers", func() (err error) { ast, err = parser.ParseWorkers(src, 1); return }); err != nil {
		return nil, err
	}
	if err := step("sema.CheckWorkers", func() (err error) { info, err = sema.CheckWorkers(ast, 1); return }); err != nil {
		return nil, err
	}
	if err := step("lower.FileWorkers", func() (err error) { res.IL, err = lower.FileWorkers(ast, info, 1); return }); err != nil {
		return nil, err
	}
	if err := step("pass.Manager.Run", func() (err error) {
		res.Report, err = pass.NewManager(opts).Run(res.IL, singleThread())
		return
	}); err != nil {
		return nil, err
	}
	if err := step("codegen.Generate", func() (err error) { res.Machine, err = codegen.Generate(res.IL); return }); err != nil {
		return nil, err
	}
	if (opts.StrengthReduce || opts.Vectorize) && !opts.NoSchedule {
		_ = step("codegen.Schedule", func() error { codegen.Schedule(res.Machine); return nil })
	}
	return res, nil
}
