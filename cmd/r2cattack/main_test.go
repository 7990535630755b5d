package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets a test run this binary's main: the test binary re-executes
// itself with "-run-main" followed by the binary's arguments.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-run-main" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs main with args in a child process and returns its stdout
// and exit code.
func runMain(t *testing.T, args ...string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-run-main"}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	t.Logf("stderr:\n%s", stderr.Bytes())
	return stdout.Bytes(), cmd.ProcessState.ExitCode()
}

// mustParseJSON fails unless path holds exactly one JSON document.
func mustParseJSON(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b) {
		t.Errorf("%s is not a complete JSON document (%d bytes)", filepath.Base(path), len(b))
	}
}

// A malformed -faults plan exits 2 before any sink file is created, so no
// empty -metrics-out or -trace file is left behind.
func TestBadFaultPlanCreatesNoFiles(t *testing.T) {
	dir := t.TempDir()
	m, tr := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
	if _, code := runMain(t, "-faults", "bogus", "-metrics-out", m, "-trace", tr, "-trace-format", "chrome", "table3"); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	for _, p := range []string{m, tr} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			mustParseJSON(t, p)
		}
	}
}
