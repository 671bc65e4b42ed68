package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny is the smallest valid run: one of everything and no users.
var tiny = []string{"-pairs", "1", "-tweets", "1", "-passages", "1", "-products", "1", "-users", "0"}

func TestRejectsBadSizesBeforeWriting(t *testing.T) {
	for _, c := range []struct{ flag, val string }{
		{"pairs", "-3"}, {"pairs", "0"},
		{"tweets", "0"},
		{"passages", "0"},
		{"products", "0"},
		{"users", "-1"},
	} {
		dir := filepath.Join(t.TempDir(), "out")
		args := append([]string{"-out", dir}, tiny...)
		args = append(args, "-"+c.flag, c.val)
		var stdout, stderr bytes.Buffer
		if code := cli(args, &stdout, &stderr); code != 2 {
			t.Errorf("-%s %s: exit %d, want 2", c.flag, c.val, code)
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "-"+c.flag) {
			t.Errorf("-%s %s: stderr %q, want one line naming the flag", c.flag, c.val, msg)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("-%s %s: output directory exists (stat err %v)", c.flag, c.val, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("-%s %s: stdout %q", c.flag, c.val, stdout.String())
		}
	}
}

func TestTinyRunWritesEveryDataset(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := cli(append([]string{"-out", dir}, tiny...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, name := range []string{
		"maccrobat", "wildfire_tweets.jsonl", "passages.jsonl", "candidates.jsonl", "purchases.jsonl",
	} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Error(err)
		}
	}
	if got := strings.Count(stdout.String(), "\n"); got != 4 {
		t.Errorf("stdout has %d lines, want 4: %q", got, stdout.String())
	}
}
