// Command benchmark is the repository's end-to-end benchmark. It runs
// one workload for a fixed wall-time budget, checks every output, and
// prints each metric by name and unit; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Run it from the repository root through benchmark/run.sh, which
// builds it with its build cache under .bench_build:
//
//	sh benchmark/run.sh --workload live-bulk|live-rpc --seed N --seconds S --trace 0|1
//
// BENCHMARK.json at the repository root names the workloads, why each
// was chosen, and the metrics each mode prints with their units; the
// benchmark reads it and refuses to run when the two disagree.
//
// Workloads:
//
//   - live-bulk: one process holds a GET server and a client, each on
//     two 127.0.0.1 paths, and runs sequential 100 MB GETs with AEAD on,
//     one fresh connection at a time (closed loop, one client).
//   - live-rpc: the same set-up runs a closed loop of one outstanding GET
//     at a time, each on a fresh stream of a long-lived connection, with
//     seeded response sizes of 100 B to 5 KB.
//
// There is no simulator workload: mptcpsim stalls one or two segments
// short of a 4 MB GET in a few percent of low-BDP runs, so a
// time-bounded run over the WSP grid fails a varying number of
// operations, and a benchmark workload must complete every one.
//
// End-to-end metrics (--trace 0) are the same for every workload. An
// operation (op) is a 100 MB GET or a request:
//
//	setup_s         median wall time of the repeated set-up (socket
//	                binding, listener start, handshake and warm-up
//	                GETs)
//	goodput_mbps    median goodput sample: payload bytes × 8 / wall time of
//	                each 10 MB of a GET from dial (live-bulk), or of one
//	                request (live-rpc)
//	latency_ms_p50  median latency sample: one MB of a GET (live-bulk),
//	                one request to its last response byte (live-rpc)
//	cpu_ms_per_op   process CPU (user+sys, client and server) per op
//	mem_mb          median memory the Go runtime holds from the OS
//
// All are medians or CPU-time ratios: on a shared host, vCPU stalls
// lengthen a few operations by milliseconds, which moves wall-time
// means (ops per second, mean latency) far more than medians. Ops per
// second and the latency tail are per-layer metrics for that reason.
//
// Failed operations — GETs that errored, timed out or came up short —
// are counted in "failed" and never become a latency or goodput sample.
// A completed operation that delivered other than the requested bytes
// is an output error: "correct" turns false and the benchmark exits 1.
//
// A traced run (--trace 1) reports the per-layer metrics. It measures
// the layers from outside by wrapping their seams — the core
// DatagramSender (Register, Send), the live socket wrapper and the
// protocol tracer — records a span at each boundary, and reports each
// layer's self time and the tracing overhead against untraced
// operations of the same run. Spans are written to
// .bench_build/spans/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"mpquic/internal/perf"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(*env) (*outcome, error){
	"live-bulk": runLiveBulk,
	"live-rpc":  runLiveRPC,
}

// env carries the run parameters every workload needs.
type env struct {
	name     string
	seed     uint64
	duration time.Duration
	traced   bool
	sw       *perf.Stopwatch
	nproc    int
	spansDir string
}

// outcome is what a workload returns: operation counts, output-check
// failures, and its metrics by name.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: live-bulk or live-rpc")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "wall seconds to measure")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	runWorkload, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: need --workload live-bulk|live-rpc, --seconds >= 1, --trace 0|1")
		return 2
	}
	def, err := loadDefinition("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	why, ok := def.why(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: BENCHMARK.json does not list workload %s\n", *name)
		return 1
	}
	want := def.EndToEnd
	if *traced == 1 {
		want = def.PerLayer
	}

	e := &env{
		name:     *name,
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		traced:   *traced == 1,
		sw:       perf.NewStopwatch(),
		nproc:    runtime.NumCPU(),
		spansDir: ".bench_build/spans",
	}
	// Workers, concurrent connections and GOMAXPROCS all stay within
	// nproc.
	runtime.GOMAXPROCS(e.nproc)

	fmt.Printf("host %s\n", hostFingerprint(e))
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", e.name, e.seed, *seconds, *traced)
	fmt.Printf("why %s\n", why)

	out, err := runWorkload(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", e.name, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "benchmark: output check failed: %s\n", p)
	}
	if out.attempted < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: no operation attempted")
		return 1
	}
	if len(out.metrics) != len(want) {
		fmt.Fprintf(os.Stderr, "benchmark: %s measured %d metrics, BENCHMARK.json lists %d\n", e.name, len(out.metrics), len(want))
		return 1
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	for _, m := range want {
		v, ok := out.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "benchmark: %s did not measure %s\n", e.name, m.Name)
			return 1
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("metric %-30s %14.6g %s\n", m.Name, v, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// definition is the part of BENCHMARK.json the benchmark reads.
type definition struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDef                  `json:"end_to_end"`
	PerLayer  []metricDef                  `json:"per_layer"`
}

type metricDef struct{ Name, Unit string }

func loadDefinition(path string) (*definition, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var def definition
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &def, nil
}

func (d *definition) why(name string) (string, bool) {
	for _, w := range d.Workloads {
		if w.Name == name {
			return w.Why, true
		}
	}
	return "", false
}

// hostFingerprint describes the machine a result was measured on.
func hostFingerprint(e *env) string {
	kernel := "unknown"
	var u syscall.Utsname
	if err := syscall.Uname(&u); err == nil {
		kernel = utsString(u.Sysname[:]) + " " + utsString(u.Release[:])
	}
	fp := struct {
		Nproc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		Kernel     string `json:"kernel"`
		Arch       string `json:"arch"`
		Network    string `json:"network"`
	}{e.nproc, runtime.GOMAXPROCS(0), runtime.Version(), kernel, runtime.GOARCH, "loopback 127.0.0.1, two UDP sockets per endpoint"}
	b, _ := json.Marshal(fp) // a struct of strings and ints always marshals
	return string(b)
}

func utsString[T int8 | uint8](f []T) string {
	var sb strings.Builder
	for _, c := range f {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}
