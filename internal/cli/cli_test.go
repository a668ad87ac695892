package cli

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// captureStderr runs f with os.Stderr redirected to a temp file and
// returns what it wrote.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = tmp
	defer func() { os.Stderr = old }()
	f()
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(tmp)
	if err != nil {
		t.Fatal(err)
	}
	tmp.Close()
	return string(b)
}

// Every exit code must leave all four requested outputs behind: the
// flush runs after the body returns, never skipped by an early exit.
func TestRunFlushesOutputsOnEveryExitCode(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name     string
		code     int
		err      error
		wantCode int
	}{
		{"ok", 0, nil, 0},
		{"verdict", 2, nil, 2},
		{"error", 0, boom, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := func(name string) string { return filepath.Join(dir, name) }
			args := []string{
				"-cpuprofile", path("cpu.prof"),
				"-memprofile", path("mem.prof"),
				"-metrics-out", path("metrics.json"),
				"-spans-out", path("spans.json"),
				"-n", "3",
			}
			var got int
			stderr := captureStderr(t, func() {
				got = Run("testtool", args, func(env *Env) (int, error) {
					n := env.Flags.Int("n", 0, "a command flag")
					if err := env.Parse(); err != nil {
						return 0, err
					}
					if *n != 3 {
						t.Errorf("-n = %d, want 3", *n)
					}
					if env.Spans == nil {
						t.Error("-spans-out set but Spans is nil")
					}
					env.Spans.Start("test", "work").End()
					env.Registry.Counter("work_total").Add(1)
					return tc.code, tc.err
				})
			})
			if got != tc.wantCode {
				t.Errorf("exit code %d, want %d", got, tc.wantCode)
			}
			if tc.err != nil && !strings.Contains(stderr, "testtool: boom\n") {
				t.Errorf("stderr lacks %q:\n%s", "testtool: boom", stderr)
			}
			for _, name := range []string{"cpu.prof", "mem.prof", "metrics.json", "spans.json"} {
				fi, err := os.Stat(path(name))
				if err != nil || fi.Size() == 0 {
					t.Errorf("%s missing or empty (err %v)", name, err)
				}
			}
			checkProfile(t, path("cpu.prof"))
			checkProfile(t, path("mem.prof"))
			var metrics struct {
				Manifest struct {
					Tool string   `json:"tool"`
					Args []string `json:"args"`
				} `json:"manifest"`
			}
			b, _ := os.ReadFile(path("metrics.json"))
			if err := json.Unmarshal(b, &metrics); err != nil {
				t.Fatalf("metrics snapshot is not JSON: %v", err)
			}
			if metrics.Manifest.Tool != "testtool" || len(metrics.Manifest.Args) != len(args) {
				t.Errorf("metrics manifest = %+v, want tool testtool and the run's args", metrics.Manifest)
			}
			if b, _ := os.ReadFile(path("spans.json")); !bytes.Contains(b, []byte(`"work"`)) {
				t.Errorf("span trace lacks the body's span:\n%s", b)
			}
		})
	}
}

// checkProfile asserts path is a gzip-compressed pprof profile and,
// when the go tool is on PATH, that pprof itself reads it.
func checkProfile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s: not gzip: %v", path, err)
	}
	if b, err := io.ReadAll(zr); err != nil || len(b) == 0 {
		t.Fatalf("%s: empty or corrupt profile (err %v)", path, err)
	}
	if testing.Short() {
		return
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		return
	}
	if out, err := exec.Command(goTool, "tool", "pprof", "-top", path).CombinedOutput(); err != nil {
		t.Fatalf("go tool pprof -top %s: %v\n%s", path, err, out)
	}
}

// A malformed command line exits 2 and -h exits 0, as the flag
// package's ExitOnError handling did; neither runs the rest of the
// body.
func TestRunUsageExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-no-such-flag"}, 2},
		{[]string{"-h"}, 0},
	} {
		var got int
		captureStderr(t, func() {
			got = Run("testtool", tc.args, func(env *Env) (int, error) {
				if err := env.Parse(); err != nil {
					return 0, err
				}
				t.Errorf("%v: body ran past Parse", tc.args)
				return 0, nil
			})
		})
		if got != tc.want {
			t.Errorf("%v: exit code %d, want %d", tc.args, got, tc.want)
		}
	}
}

// A failed output write turns the exit code into 1 and names the tool.
func TestRunReportsFlushFailure(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "metrics.json")
	var got int
	stderr := captureStderr(t, func() {
		got = Run("testtool", []string{"-metrics-out", bad}, func(env *Env) (int, error) {
			return 2, env.Parse()
		})
	})
	if got != 1 || !strings.Contains(stderr, "testtool: ") {
		t.Errorf("exit %d, stderr %q; want exit 1 and a testtool: error line", got, stderr)
	}
}
