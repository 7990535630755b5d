package sim_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"r2c/internal/defense"
	"r2c/internal/sim"
	"r2c/internal/vm"
	"r2c/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the vm.Result golden file under testdata/")

// goldenResult is one pinned run: a workload under a defense config, with
// the entire vm.Result it produced.
type goldenResult struct {
	Workload string
	Config   string
	Result   *vm.Result
}

// TestResultGolden pins the full vm.Result — modeled cycles, per-class
// counts, the data-TLB hit and miss counters, fault, trap and output — of
// the twelve SPEC workloads plus nginx at scale 64 under the baseline and
// full-R2C configs. The fast==legacy differential suite cannot catch drift
// in anything both interpreters share (the data-TLB accounting among it);
// this golden can. Regenerate with `go test ./internal/sim -run
// ResultGolden -update` only for an intended change of modeled behaviour.
func TestResultGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("a determinism gate, not a race gate; too slow under the race detector")
	}
	benches := workload.SPEC()
	nginx, ok := workload.ByName("nginx")
	if !ok {
		t.Fatal("workload nginx missing")
	}
	benches = append(benches, nginx)
	var got []goldenResult
	for _, b := range benches {
		m := b.Build(64)
		for _, cfg := range []defense.Config{defense.Off(), defense.R2CFull()} {
			res, _, err := sim.Run(m, cfg, 7, vm.EPYCRome())
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, cfg.Name, err)
			}
			got = append(got, goldenResult{Workload: b.Name, Config: cfg.Name, Result: res})
		}
	}
	// One run per line, so a drift shows as the lines of the runs it moved.
	buf := []byte("[\n")
	for i, g := range got {
		line, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, line...)
	}
	buf = append(buf, "\n]\n"...)

	path := filepath.Join("testdata", "results.golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	gotLines, wantLines := bytes.Split(buf, []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s has %d lines, want %d; regenerate with -update", path, len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("%s line %d differs from the golden result:\ngot:  %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
}
