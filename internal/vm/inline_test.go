package vm_test

import (
	"os"
	"os/exec"
	"regexp"
	"testing"
)

// TestMemoryHitPathInlines guards the cost model of the data-TLB hit path:
// loadHit and storeHit must inline at every memory site of the fast loop.
// They stop inlining into runFast as soon as it grows past the Go inliner's
// big-function threshold, silently putting two calls back on every hit, so
// the compiler's own inlining report is checked here.
func TestMemoryHitPathInlines(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the package")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command(gobin, "build", "-gcflags=-m=2", "-o", os.DevNull, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	if regexp.MustCompile(`runFast considered 'big'`).Match(out) {
		t.Fatal("runFast is past the inliner's big-function threshold; move rare cases into fastRare")
	}
	// One site each in the load, store, push, push-immediate and pop ops,
	// two in the push pair, one in the push+call pair, fastCall, fastRet,
	// vload and vstore.
	const sites = 13
	hits := regexp.MustCompile(`fast\.go:\d+:\d+: inlining call to \(\*Machine\)\.(loadHit|storeHit)`).FindAll(out, -1)
	if len(hits) < sites {
		t.Fatalf("hit path inlined at %d sites in fast.go, want at least %d", len(hits), sites)
	}
}
