package main

// simulate-kernels: the kernels are compiled at FullOptions during
// set-up; the run then simulates them repeatedly on the fast engine at
// p=4, so the titan engine does nearly all the timed work. Every run's
// exit value and output is checked against the Go reimplementation, and
// once per run, untimed, p=1 must print what p=4 printed and the
// reference interpreter must agree with the fast engine exactly.

import (
	"fmt"
	"os"
	"runtime/debug"

	"repro/internal/driver"
	"repro/internal/titan"
)

const simProcs = 4

// simRounds is how many times a run simulates every kernel.
func simRounds(seconds int) int { return 3 * seconds }

type compiledKernel struct {
	kernel
	prog *titan.Program
}

func runSimulateKernels(cfg config) (*report, error) {
	kernels := buildKernels(cfg.seed)
	ks, setupS, err := timedSetup(func() ([]compiledKernel, error) {
		var out []compiledKernel
		for _, k := range kernels {
			res, err := driver.Compile(k.src, driver.FullOptions())
			if err != nil {
				return nil, fmt.Errorf("kernel %s: %w", k.name, err)
			}
			out = append(out, compiledKernel{k, res.Machine})
		}
		return out, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var (
		e     = endToEnd{setupS: setupS}
		tl    titanLayer
		gc    gcWindow
		runMS = map[string][]float64{}
		last  = map[string]titan.Result{}
	)
	op := 0
	for round := 0; round < simRounds(cfg.seconds); round++ {
		for _, k := range ks {
			op++
			rep.attempted++
			// Each machine holds a 16 MiB memory image; the window's
			// closing collection returns it to the OS, untimed, so peak
			// RSS is the need of one run rather than an accident of GC
			// pacing.
			gc.open()
			a0 := readCounter("/gc/heap/allocs:bytes")
			m := titan.NewMachine(k.prog, simProcs)
			id := tr.begin("titan.Machine.Run", 0, op)
			c0 := cpuNow()
			r, err := m.Run("main")
			d := cpuNow() - c0
			tr.end(id)
			e.allocBytes += readCounter("/gc/heap/allocs:bytes") - a0
			e.allocOps++
			gc.close(1)
			if err != nil {
				rep.fail(false, k.name, "run: "+err.Error())
				continue
			}
			if r.ExitCode != k.exit || r.Output != k.out {
				rep.fail(false, k.name, fmt.Sprintf("exit %d output %q, want exit %d output %q", r.ExitCode, r.Output, k.exit, k.out))
				continue
			}
			tl.add(r, d)
			runMS[k.name] = append(runMS[k.name], ms(d))
			last[k.name] = r
		}
	}
	// Property checks, untimed, once per kernel per run.
	for _, k := range ks {
		fast, ok := last[k.name]
		if !ok {
			continue
		}
		r1, err := titan.NewMachine(k.prog, 1).Run("main")
		if err != nil || r1.ExitCode != fast.ExitCode || r1.Output != fast.Output {
			rep.wrong(k.name, fmt.Sprintf("p=1 gave exit %d output %q (err %v), p=%d gave exit %d output %q",
				r1.ExitCode, r1.Output, err, simProcs, fast.ExitCode, fast.Output))
		}
		ref, err := titan.NewMachine(k.prog, simProcs).RunReference("main")
		if err != nil || ref != fast {
			rep.wrong(k.name, fmt.Sprintf("reference engine disagrees with the fast engine (err %v): %+v vs %+v", err, ref, fast))
		}
		debug.FreeOSMemory()
	}
	if len(last) != len(ks) {
		return rep, nil // a kernel failed every run: the run is incorrect, no figures
	}
	if !cfg.trace {
		// Every run is an operation. The simulation rate is at each
		// kernel's fastest run: a stretch of the run in which the host is
		// slow does not move it.
		var opMS []float64
		for _, k := range ks {
			r, fastest := last[k.name], quantile(runMS[k.name], 0)
			opMS = append(opMS, runMS[k.name]...)
			e.sim.add(r.Cycles, r.Instrs, int64(fastest*1e6))
			e.codeSize += staticInstrs(k.prog)
		}
		e.ops(opMS)
		e.report(rep)
		return rep, nil
	}
	// Per-kernel figures go to standard error only: the manifest's
	// per-layer metrics are the same for every workload.
	for _, k := range ks {
		r := last[k.name]
		fmt.Fprintf(os.Stderr, "kernel %-14s run_ms.p50 %8.3f cycles %10d sync_stall %8d mask_lanes %d/%d\n",
			k.name, quantile(runMS[k.name], 0.5), r.Cycles, r.SyncStalls, r.MaskLanesActive, r.MaskLanesTotal)
	}
	cl := newCompileLayers()
	jobs := make([]job, len(ks))
	for i, k := range ks {
		jobs[i] = kernelJob(k.kernel)
		if _, err := cl.compile(tr, rep, op+i+1, k.name, k.src, driver.FullOptions()); err != nil {
			rep.wrong(k.name, "traced compile: "+err.Error())
		}
	}
	sl, err := probeService(tr, rep, jobs, op+len(ks))
	if err != nil {
		return nil, err
	}
	cl.report(rep, tr.summary())
	tl.report(rep)
	gc.report(rep)
	sl.report(rep)
	return rep, tr.write("simulate-kernels", cfg.seed)
}
