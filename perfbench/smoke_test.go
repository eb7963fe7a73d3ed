package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared is one metric entry of BENCHMARK.json.
type declared struct {
	Name, Unit string
}

func readBenchmark(t *testing.T) (endToEnd, perLayer []declared) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(specs))
	}
	for _, w := range b.Workloads {
		if _, ok := specByName(w.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	return b.EndToEnd, b.PerLayer
}

// lastReport parses the JSON object on the last line of a run's output.
func lastReport(t *testing.T, out string) report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return rep
}

// TestSmoke runs every workload at a tiny scale, timed and traced, and
// checks that each prints exactly the metrics BENCHMARK.json declares, each
// with its declared unit.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := readBenchmark(t)
	for _, w := range specs {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			var buf bytes.Buffer
			run(&buf, options{workload: w.name, seed: 7, seconds: 1, trace: traced, tiny: true, pins: pins{}})
			rep := lastReport(t, buf.String())
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					w.name, traced, rep.Correct, rep.Attempted, rep.Failed, buf.String())
			}
			for _, d := range want {
				m, ok := rep.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s not printed", w.name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%t: metric %s unit %q, BENCHMARK.json says %q",
						w.name, traced, d.Name, m.Unit, d.Unit)
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%t: printed %d metrics, BENCHMARK.json declares %d",
					w.name, traced, len(rep.Metrics), len(want))
			}
		}
	}
}

// TestCorruptPinFails checks that a job whose fingerprint differs from the
// pinned value is reported as failed.
func TestCorruptPinFails(t *testing.T) {
	for _, w := range specs {
		var buf bytes.Buffer
		bad := pins{w.name: {"7": strings.Repeat("0", 64)}}
		run(&buf, options{workload: w.name, seed: 7, seconds: 1, tiny: true, pins: bad})
		rep := lastReport(t, buf.String())
		if rep.Correct || rep.Failed == 0 || rep.Failed != rep.Attempted {
			t.Errorf("%s: corrupted pin gave correct=%t attempted=%d failed=%d",
				w.name, rep.Correct, rep.Attempted, rep.Failed)
		}
		if !strings.Contains(buf.String(), "does not match pinned") {
			t.Errorf("%s: output does not report the pin mismatch:\n%s", w.name, buf.String())
		}
	}
}
