// Package golden pins command outputs as digests. A command test lists
// its invocations as Cases; Check runs each in-process and compares its
// exit code and the SHA-256 of its stdout, with the run manifest
// dropped, against the package's testdata/golden file. Run the test
// with -update to rewrite that file after an intended change, and name
// the digests that moved in CHANGES.md.
package golden

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// file is the digest file, relative to the test's package directory.
const file = "testdata/golden"

var update = flag.Bool("update", false, "rewrite "+file+" from this run's outputs")

// Case is one pinned invocation. Run executes it, writing its report to
// os.Stdout, and returns the exit code.
type Case struct {
	Name string
	Run  func() int
}

// Check runs every case in order and compares "<exit code> <digest>"
// with the case's line in testdata/golden; with -update it rewrites
// the file instead.
func Check(t *testing.T, cases []Case) {
	t.Helper()
	want, err := read()
	if err != nil && !*update {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("# name exit-code sha256(stdout without the run manifest)\n")
	for _, c := range cases {
		code, out := capture(t, c.Run)
		got := fmt.Sprintf("%d %s", code, digest(out))
		fmt.Fprintf(&b, "%s %s\n", c.Name, got)
		if !*update && want[c.Name] != got {
			t.Errorf("%s: got %q, golden %q", c.Name, got, want[c.Name])
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// read parses file into name → "<exit code> <digest>".
func read() (map[string]string, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", file, line)
		}
		m[name] = rest
	}
	return m, sc.Err()
}

// capture runs f with os.Stdout and os.Stderr redirected to temporary
// files and returns f's result and everything it wrote to stdout.
func capture(t *testing.T, f func() int) (int, []byte) {
	t.Helper()
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = stdout, stderr
	code := f()
	os.Stdout, os.Stderr = oldOut, oldErr
	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, out
}

// digest is the hex SHA-256 of a command's stdout without its run
// manifest. Text reports print the manifest to stderr, so their stdout
// is hashed as is; a JSON report object loses its "manifest" member
// (which records flags, host and start time) and is re-encoded with
// sorted keys.
func digest(out []byte) string {
	var obj map[string]json.RawMessage
	if json.Unmarshal(out, &obj) == nil {
		if _, ok := obj["manifest"]; ok {
			delete(obj, "manifest")
			if b, err := json.Marshal(obj); err == nil {
				out = b
			}
		}
	}
	sum := sha256.Sum256(out)
	return hex.EncodeToString(sum[:])
}
