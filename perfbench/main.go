package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runBudget bounds one benchmark run, children included, inside the 180 s
// a run may take.
const runBudget = 170 * time.Second

// workDirRoot holds every file a run writes, relative to the checkout root
// the benchmark is started from.
const workDirRoot = ".bench_build/work"

// maxProcs is the parallelism every child runs with: the load is sized for
// a 2-core machine, and a larger machine must not change what is measured.
const maxProcs = 2

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "child" {
		err = childMain(os.Args[2:], os.Stdout)
	} else {
		err = run(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// args are the flags the orchestrator and its children share.
type args struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
}

func (a *args) register(fs *flag.FlagSet) {
	fs.StringVar(&a.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&a.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&a.seconds, "seconds", 10, "seconds of work to measure")
	fs.IntVar(&a.trace, "trace", 0, "0 prints end-to-end metrics; 1 prints per-layer metrics from a traced run")
}

func (a *args) check() error {
	if _, ok := workloads[a.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", a.workload, strings.Join(workloadNames(), ", "))
	}
	if a.trace != 0 && a.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", a.trace)
	}
	if !(a.seconds > 0) {
		return fmt.Errorf("--seconds must be positive, got %v", a.seconds)
	}
	return nil
}

// workload describes how the orchestrator splits one workload run into
// child processes. Every child is a fresh process: the shared corpus keeps
// every certificate a process ever interned, so repeats inside one
// process would not be independent.
type workload struct {
	// setupOnly extra children only set up, adding set-up samples.
	setupOnly int
	// repeat runs measuring children until seconds of work are measured
	// (at least minChildren); otherwise one child measures for seconds.
	repeat      bool
	minChildren int
	child       func(ctx context.Context, c *childCtx) (*childResult, error)
	// finish derives run-level per-layer metrics from all children.
	finish func(o *outcome)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// childResult is what one child process reports: its standard output is
// this one JSON object.
type childResult struct {
	Traced    bool               `json:"traced"`
	SetupS    float64            `json:"setup_s"` // CPU seconds of set-up
	RSSMB     float64            `json:"rss_mb"`
	SamplesMs []float64          `json:"samples_ms,omitempty"`
	Units     float64            `json:"units"`  // ops measured
	WorkS     float64            `json:"work_s"` // wall seconds they took
	CPUS      float64            `json:"cpu_s"`  // CPU seconds they took
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Digest    string             `json:"digest,omitempty"`
	Named     map[string]float64 `json:"named,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// outcome gathers every child's result for one run.
type outcome struct {
	setups, rss, samples []float64
	units, workS, cpuS   float64
	attempted, failed    int
	problems             []string
	named                map[string][]float64
	layers               map[string][]float64
	children             []*childResult
}

// add folds in one child's result. Set-up-only children add set-up
// samples, counts and checks; measuring children add their measurements.
func (o *outcome) add(r *childResult, measuring bool) {
	if r.SetupS > 0 {
		o.setups = append(o.setups, r.SetupS)
	}
	o.attempted += r.Attempted
	o.failed += r.Failed
	o.problems = append(o.problems, r.Problems...)
	if r.Traced {
		for k, v := range r.Layers {
			o.layers[k] = append(o.layers[k], v)
		}
	}
	if !measuring {
		return
	}
	o.children = append(o.children, r)
	o.rss = append(o.rss, r.RSSMB)
	o.samples = append(o.samples, r.SamplesMs...)
	o.units += r.Units
	o.workS += r.WorkS
	o.cpuS += r.CPUS
	for k, v := range r.Named {
		o.named[k] = append(o.named[k], v)
	}
}

// orchestrator starts the children of one run.
type orchestrator struct {
	a    args
	self string
	work string
}

func run(argv []string, stdout io.Writer) error {
	var a args
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	a.register(fs)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if err := a.check(); err != nil {
		return err
	}
	// An interrupt or the run budget cancels ctx, which kills the children.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own executable: %w", err)
	}
	work, err := filepath.Abs(filepath.Join(workDirRoot, fmt.Sprintf("%s-%d", a.workload, os.Getpid())))
	if err != nil {
		return fmt.Errorf("resolving work directory: %w", err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return fmt.Errorf("creating work directory: %w", err)
	}
	defer os.RemoveAll(work)

	orch := &orchestrator{a: a, self: self, work: work}
	out, err := orch.run(ctx, workloads[a.workload])
	if err != nil {
		return err
	}
	return report(stdout, a, out)
}

func (orch *orchestrator) run(ctx context.Context, w workload) (*outcome, error) {
	out := &outcome{named: map[string][]float64{}, layers: map[string][]float64{}}
	for i := 0; i < w.setupOnly; i++ {
		r, err := orch.child(ctx, "setup", i, orch.a.trace == 1)
		if err != nil {
			return nil, err
		}
		out.add(r, false)
	}
	if !w.repeat {
		r, err := orch.child(ctx, "measure", 0, orch.a.trace == 1)
		if err != nil {
			return nil, err
		}
		out.add(r, true)
	} else {
		// A traced run alternates traced and untraced children, so the
		// tracing overhead is the difference between the two halves.
		minChildren := w.minChildren
		if orch.a.trace == 1 {
			minChildren = max(minChildren, 4)
		}
		for i := 0; i < minChildren || out.workS < orch.a.seconds; i++ {
			r, err := orch.child(ctx, "measure", i, orch.a.trace == 1 && i%2 == 0)
			if err != nil {
				return nil, err
			}
			out.add(r, true)
		}
	}
	if w.finish != nil {
		w.finish(out)
	}
	return out, nil
}

// child runs one child process to completion and decodes its result.
func (orch *orchestrator) child(ctx context.Context, role string, index int, traced bool) (*childResult, error) {
	dir := filepath.Join(orch.work, fmt.Sprintf("%s-%d", role, index))
	a := orch.a
	a.trace = 0
	if traced {
		a.trace = 1
	}
	cmd := childCommand(ctx, orch.self, a, role, dir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child %d: %w", role, index, err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("removing %s: %w", dir, err)
	}
	var r childResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s child %d: decoding result: %w", role, index, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s child %d: set-up %.3f s, %d ops, peak RSS %.1f MB\n",
		role, index, r.SetupS, r.Attempted, r.RSSMB)
	return &r, nil
}

// childCommand builds the command line of a child process.
func childCommand(ctx context.Context, self string, a args, role, dir string) *exec.Cmd {
	return exec.CommandContext(ctx, self, "child",
		"--workload", a.workload,
		"--seed", strconv.FormatInt(a.seed, 10),
		"--seconds", strconv.FormatFloat(a.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(a.trace),
		"--role", role,
		"--dir", dir)
}

// childCtx is what a workload's child function receives.
type childCtx struct {
	args
	role   string
	dir    string
	stdout io.Writer
}

func childMain(argv []string, stdout io.Writer) error {
	c := childCtx{stdout: stdout}
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	c.register(fs)
	fs.StringVar(&c.role, "role", "measure", "setup, measure, or serve (durable-ingest's server process)")
	fs.StringVar(&c.dir, "dir", "", "directory the child may write")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if err := c.check(); err != nil {
		return err
	}
	if c.dir == "" {
		return errors.New("child needs --dir")
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", c.dir, err)
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	r, err := workloads[c.workload].child(context.Background(), &c)
	if err != nil {
		return err
	}
	r.Traced = c.trace == 1
	if r.RSSMB == 0 {
		r.RSSMB = peakRSSMB()
	}
	return json.NewEncoder(stdout).Encode(r)
}

// cpuSeconds is the user and system CPU time the process has used. Unlike
// wall time it leaves out the time a hypervisor gave the machine's cores to
// other guests, which on a shared host moved wall-clock throughput by a
// third between runs.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB reads the process's peak resident set (VmHWM), in MiB; 0 when
// the kernel does not report it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a run prints.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd computes the end-to-end metrics of a run.
func endToEnd(out *outcome) map[string]float64 {
	m := map[string]float64{
		"setup_s":     median(out.setups),
		"rss_peak_mb": median(out.rss),
	}
	if out.units > 0 {
		m["cpu_ms_per_op"] = out.cpuS / out.units * 1000
	}
	return m
}

func report(w io.Writer, a args, out *outcome) error {
	res := runResult{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	var b strings.Builder
	var defs []metricDef
	values := map[string]float64{}
	if a.trace == 1 {
		defs = perLayerMetrics
		for k, vs := range out.layers {
			values[k] = median(vs)
		}
	} else {
		defs = endToEndMetrics
		values = endToEnd(out)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && a.trace == 0 {
			out.problems = append(out.problems, "end-to-end metric "+d.name+" was not measured")
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.problems = append(out.problems, fmt.Sprintf("metric %s is %v", d.name, v))
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		b.WriteString(fmt.Sprintf("%-32s %14.4f %s\n", d.name, v, d.unit))
	}
	if a.trace == 0 {
		names := make([]string, 0, len(out.named))
		for k := range out.named {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			b.WriteString(fmt.Sprintf("  %-30s %14.4f (median of %d)\n", k, median(out.named[k]), len(out.named[k])))
		}
		if n := len(out.samples); n > 0 {
			p, v := tail(out.samples)
			b.WriteString(fmt.Sprintf("  op latency: p50 %.4f ms, p%g %.4f ms, of %d ops (%d beyond the tail)\n",
				median(out.samples), p, v, n, beyond(n, p)))
		}
		if out.workS > 0 {
			b.WriteString(fmt.Sprintf("  throughput: %.4f ops per wall second\n", out.units/out.workS))
		}
		b.WriteString(fmt.Sprintf("  set-up samples: %d\n", len(out.setups)))
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res.Correct = len(out.problems) == 0
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}
