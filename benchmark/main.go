// Command benchmark is the repository's end-to-end benchmark: it builds
// cmd/pipd, drives a fresh durable pipd subprocess per workload through the
// wire with the database/sql driver, closed loop, and reports client-side
// metrics (untraced) or an outside-in per-layer breakdown (traced). See
// README.md for the workloads, the metric glossary and the run shape.
//
//	bash benchmark/run.sh --workload point-read --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --seed 1 --out benchmark/out        # whole suite
//	bash benchmark/run.sh --aa                                # suite twice, A/A table
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result as the last line (empty = the whole suite)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated catalog and key streams")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the traced pass")
	flag.BoolVar(&o.aa, "aa", false, "run the untraced suite twice on the same binary and compare the medians with BENCHMARK.json's bounds")
	flag.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for result.json, traces and pipd logs")
	flag.StringVar(&o.src, "src", "benchmark", "the benchmark module's directory (where cmd/pipd is built from)")
	flag.StringVar(&o.build, "build", "", "directory for the pipd binary (default: -out)")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark contract, read by -aa for the bounds")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code, err := run(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

type options struct {
	workload        string
	seed            uint64
	seconds, trace  int
	aa              bool
	out, src, build string
	spec            string
}

// environment is recorded in result.json so a number can be traced back to
// the box and build that produced it.
type environment struct {
	GoVersion  string   `json:"go_version"`
	GitSHA     string   `json:"git_sha"`
	NumCPU     int      `json:"nproc"`
	Filesystem string   `json:"data_dir_filesystem"`
	PipdArgs   []string `json:"pipd_args"`
	CPU        int      `json:"pinned_to_cpu"`
	Loop       string   `json:"loop"`
	Shape      string   `json:"run_shape"`
}

type report struct {
	Env  environment  `json:"env"`
	Runs []*runResult `json:"runs"`
}

func run(ctx context.Context, o options) (int, error) {
	if runtime.NumCPU() < 2 {
		return 0, fmt.Errorf("%d CPU: the run shape needs 2, one for the measured processes and one for everything else on the box", runtime.NumCPU())
	}
	if pid := otherPipd(); pid != 0 {
		return 0, fmt.Errorf("another pipd is running (pid %d); its load would be measured as ours", pid)
	}
	var ws []workload
	if o.workload == "" {
		ws = workloads()
	} else {
		w, ok := workloadByName(o.workload)
		if !ok {
			return 0, fmt.Errorf("unknown workload %q", o.workload)
		}
		ws = []workload{w}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return 0, err
	}
	if o.build == "" {
		o.build = o.out
	}
	work, err := os.MkdirTemp(o.out, "work-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(work)
	e := &env{pipdBin: filepath.Join(o.build, "pipd"), out: o.out, work: work}
	if e.pipdBin, err = filepath.Abs(e.pipdBin); err != nil {
		return 0, err
	}
	if err := buildPipd(ctx, o.src, e.pipdBin); err != nil {
		return 0, err
	}
	syscall.Sync()            // the build's output must not be written back while fsyncs are timed
	cpu, err := pinToOneCPU() // after the build, which may use every CPU
	if err != nil {
		return 0, err
	}

	rep := &report{Env: environment{
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(o.src),
		NumCPU:     runtime.NumCPU(),
		Filesystem: fsType(work),
		PipdArgs:   durable("<dir>"),
		CPU:        cpu,
		Loop:       "closed",
		Shape: fmt.Sprintf("%d rounds, each a fresh pipd and data directory: set-up, %d crash restarts, warm-up of seconds/%d, seconds/%d measured; 1 closed-loop client, on ingest-mixed beside %d connections inserting open loop; traced pass the same",
			rounds, roundRestarts, rounds*warmShare, rounds, pacedConns),
	}}
	fmt.Printf("pipd %s | closed loop, harness and pipd on CPU %d of %d | go %s, data on %s\n",
		strings.Join(rep.Env.PipdArgs, " "), cpu, rep.Env.NumCPU, rep.Env.GoVersion, rep.Env.Filesystem)

	passes := 1
	if o.aa {
		passes = 2
	}
	for pass := 0; pass < passes; pass++ {
		for _, w := range ws {
			traces := []int{0, 1}
			switch {
			case o.aa:
				traces = []int{0}
			case o.workload != "":
				traces = []int{o.trace}
			}
			for _, t := range traces {
				var res *runResult
				if t == 0 {
					res, err = e.measure(ctx, w, o.seed, o.seconds)
				} else {
					res, err = e.tracePass(ctx, w, o.seed, o.seconds)
				}
				if err != nil {
					return 0, fmt.Errorf("%s: %w", w.name, err)
				}
				rep.Runs = append(rep.Runs, res)
				printRun(res)
			}
		}
	}
	if err := writeJSON(filepath.Join(o.out, "result.json"), rep); err != nil {
		return 0, err
	}
	code := 0
	for _, r := range rep.Runs {
		if !r.Correct {
			code = 1
		}
	}
	if o.aa {
		ok, err := printAA(o.spec, rep.Runs)
		if err != nil {
			return 0, err
		}
		if !ok {
			code = 1
		}
	}
	if o.workload != "" && !o.aa {
		// The contract's last line: exactly these keys, value and unit only.
		r := rep.Runs[0]
		type mv struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		line := struct {
			Correct   bool          `json:"correct"`
			Attempted int           `json:"attempted"`
			Failed    int           `json:"failed"`
			Metrics   map[string]mv `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
		for k, s := range r.Metrics {
			line.Metrics[k] = mv{s.Value, s.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			return 0, err
		}
		fmt.Println(string(b))
	}
	return code, nil
}

func gitSHA(dir string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = dir
	b, err := cmd.Output()
	if err != nil {
		return "unknown" // a source archive is not a git repository
	}
	return strings.TrimSpace(string(b))
}

// printRun lists every metric of a run by name, with unit and dispersion.
func printRun(r *runResult) {
	defs := endToEnd
	kind := "end-to-end, tracing off"
	if r.Trace == 1 {
		defs, kind = perLayer, "per-layer, traced pass"
	}
	fmt.Printf("\n%s (%s, seed %d, %ds): correct=%v attempted=%d failed=%d\n",
		r.Workload, kind, r.Seed, r.Seconds, r.Correct, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Println("  PROBLEM:", p)
	}
	show := func(name string, s summary) {
		if s.N > 1 {
			fmt.Printf("  %-34s %14.6g %-6s (q1 %.6g, q3 %.6g, n=%d)\n", name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
		} else {
			fmt.Printf("  %-34s %14.6g %s\n", name, s.Value, s.Unit)
		}
	}
	for _, d := range defs {
		show(d.name, r.Metrics[d.name])
	}
	for _, name := range slices.Sorted(maps.Keys(r.Diagnostics)) {
		show(name+" (unbounded)", r.Diagnostics[name])
	}
}

// printAA compares the two passes of -aa metric by metric against the
// bounds in BENCHMARK.json: PASS when the second median is no worse than
// the first by more than the bound, UNRESOLVED otherwise (same code ran
// twice, so a miss is the benchmark's spread, not a regression).
func printAA(specPath string, runs []*runResult) (bool, error) {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	half := len(runs) / 2
	ok := true
	fmt.Println("\nA/A: same binary, same seed, two passes")
	fmt.Printf("%-14s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "B vs A", "bound", "")
	for i := 0; i < half; i++ {
		a, bb := runs[i], runs[half+i]
		for _, m := range spec.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, bb.Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := "PASS"
			if worse > m.Bound {
				verdict, ok = "UNRESOLVED", false
			}
			fmt.Printf("%-14s %-18s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", a.Workload, m.Name, va, vb, (vb-va)/va*100, m.Bound*100, verdict)
		}
	}
	return ok, nil
}
