package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun checks a small run's report and that bad numeric flags exit
// 1 with an error before anything runs.
func TestRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-inserts", "20", "-threads", "2", "-dump", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	for _, want := range []string{"== trace summary ==", "== persist critical path per model ==", "== first 3 events =="} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout has no %q:\n%s", want, stdout.String())
		}
	}
	for _, args := range [][]string{
		{"-inserts", "-3"},
		{"-inserts", "0"},
		{"-threads", "-2"},
		{"-threads", "0"},
	} {
		stdout.Reset()
		stderr.Reset()
		code := run(args, &stdout, &stderr)
		if code != 1 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "tracedump: ") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1, no stdout and an error",
				args, code, stdout.String(), stderr.String())
		}
	}
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}
