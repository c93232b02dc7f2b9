// Command benchjson runs the repository's kernel benchmarks, parses the
// `go test -bench` output and writes a machine-readable JSON summary
// (BENCH.json by default) so the performance trajectory is tracked
// across PRs. With -gate it additionally enforces allocs/op ceilings on
// named benchmarks and exits nonzero on regression — CI runs it as the
// bench smoke.
//
//	go run ./cmd/benchjson                         # write BENCH.json
//	go run ./cmd/benchjson -gate 'RouteSinglePath<=0,MapSinglePathSwapDelta<=0,PBBVOPD<=2000'
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the JSON document benchjson writes. Store is the
// store-level history owned by the nocmap/store compaction benchmark;
// benchjson carries it through verbatim so rewriting the kernel
// sections never clobbers recorded runs.
type Report struct {
	GoVersion  string          `json:"go_version"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Benchtime  string          `json:"benchtime"`
	Pattern    string          `json:"pattern"`
	Results    []Result        `json:"results"`
	Store      json.RawMessage `json:"store,omitempty"`
}

const defaultPattern = "BenchmarkMapSinglePathSwapDelta$|BenchmarkRouteSinglePath$|" +
	"BenchmarkShortestPathRouting$|BenchmarkQuadrantDijkstra$|" +
	"BenchmarkPBBVOPD$|BenchmarkPBBVOPDFastQueue$|" +
	"BenchmarkMCF2VOPD$|BenchmarkMCF2VOPDSolverReuse$|BenchmarkLPSimplex$|" +
	"BenchmarkMapSinglePathVOPD$|BenchmarkMapSinglePath65$|BenchmarkInitializeVOPD$|" +
	"BenchmarkParseSubmit$|BenchmarkWriteJobStatus$|BenchmarkApplyOpsCacheHit$|BenchmarkSubmitCacheHit$"

// benchLine matches one result line; metrics a benchmark reports with
// b.ReportMetric sit between ns/op and B/op and are skipped.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:(?:\s+[\d.]+ \S+)*?\s+(\d+) B/op\s+(\d+) allocs/op)?`)

// trimProcSuffix drops the "-N" GOMAXPROCS suffix go test appends to
// benchmark names, so BENCH.json entries are comparable across
// machines with different core counts.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

func main() {
	pattern := flag.String("bench", defaultPattern, "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "50x", "go test -benchtime value")
	out := flag.String("out", "BENCH.json", "output JSON path")
	gate := flag.String("gate", "", "comma-separated allocs/op ceilings, e.g. 'RouteSinglePath<=0,PBBVOPD<=2000'")
	flag.Parse()

	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", *pattern, "-benchtime", *benchtime, "-benchmem", ".")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go test failed: %v\n%s\n", err, raw)
		os.Exit(1)
	}

	rep := Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime:  *benchtime,
		Pattern:    *pattern,
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		r := Result{Name: trimProcSuffix(strings.TrimPrefix(m[1], "Benchmark"))}
		r.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		r.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			r.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
			r.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		rep.Results = append(rep.Results, r)
	}
	if len(rep.Results) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmark lines parsed from:\n%s\n", raw)
		os.Exit(1)
	}
	if prev, err := os.ReadFile(*out); err == nil {
		var old struct {
			Store json.RawMessage `json:"store"`
		}
		if json.Unmarshal(prev, &old) == nil {
			rep.Store = old.Store
		}
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d results to %s\n", len(rep.Results), *out)

	if *gate == "" {
		return
	}
	failed := false
	for _, spec := range strings.Split(*gate, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		parts := strings.SplitN(spec, "<=", 2)
		if len(parts) != 2 {
			fmt.Fprintf(os.Stderr, "benchjson: bad gate %q (want Name<=N)\n", spec)
			os.Exit(2)
		}
		name := strings.TrimSpace(parts[0])
		limit, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad gate limit %q: %v\n", spec, err)
			os.Exit(2)
		}
		var match *Result
		for i := range rep.Results {
			if rep.Results[i].Name == name {
				match = &rep.Results[i]
				break
			}
		}
		if match == nil {
			for i := range rep.Results {
				if strings.HasPrefix(rep.Results[i].Name, name) {
					match = &rep.Results[i]
					break
				}
			}
		}
		if match == nil {
			fmt.Fprintf(os.Stderr, "benchjson: GATE FAIL: benchmark %q not found\n", name)
			failed = true
			continue
		}
		if match.AllocsPerOp > limit {
			fmt.Fprintf(os.Stderr, "benchjson: GATE FAIL %s: %d allocs/op > %d\n", match.Name, match.AllocsPerOp, limit)
			failed = true
		} else {
			fmt.Printf("benchjson: gate ok %s: %d allocs/op <= %d\n", match.Name, match.AllocsPerOp, limit)
		}
	}
	if failed {
		os.Exit(1)
	}
}
