package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/flags.golden")

// The flag surface — every flag's name, type and default — is the binary's
// interface: help text may change, the surface may not. Regenerate with
// `go test -run FlagSurface -update` only for an intended change.
func TestFlagSurface(t *testing.T) {
	fs, _ := newFlags()
	var b strings.Builder
	fs.VisitAll(func(f *flag.Flag) {
		fmt.Fprintf(&b, "%s\t%T\t%s\n", f.Name, f.Value.(flag.Getter).Get(), f.DefValue)
	})
	const golden = "testdata/flags.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("flag surface changed:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}
