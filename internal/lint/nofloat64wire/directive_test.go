package nofloat64wire_test

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/nofloat64wire"
)

// TestDirectiveSetMatchesAllowList walks the repository and asserts the
// sanctioned laundering sites are exactly the tagged packages: every
// directory carrying a //soda:wire-boundary directive is on the analyzer's
// allow list, and every allow-listed package in the tree carries the
// directive. Either drift direction is a silent hole in the gate.
func TestDirectiveSetMatchesAllowList(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}

	taggedDirs := map[string]bool{}
	wireNamedDirs := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		if nofloat64wire.IsWireBoundary(filepath.ToSlash(rel)) {
			wireNamedDirs[filepath.ToSlash(rel)] = true
		}
		if fileHasDirective(t, path) {
			taggedDirs[filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	want := []string{"internal/flightrec", "internal/httpseg", "internal/proto", "internal/telemetry", "internal/trace"}
	if got := sortedKeys(taggedDirs); !equal(got, want) {
		t.Errorf("directories carrying %s = %v, want %v", nofloat64wire.Directive, got, want)
	}
	// Both sources of truth must name the same set: a package whose base
	// name is allow-listed but which lacks the tag (or vice versa) is drift.
	if got := sortedKeys(wireNamedDirs); !equal(got, want) {
		t.Errorf("allow-listed package directories = %v, want %v", got, want)
	}
	for _, dir := range want {
		if !nofloat64wire.IsWireBoundary("repro/" + dir) {
			t.Errorf("IsWireBoundary(repro/%s) = false for a tagged package", dir)
		}
	}
}

// fileHasDirective reports whether the file contains the directive as a
// line of its own (the analyzer requires it in the package doc; for the
// exact-set test, anywhere in a non-test file counts as a claim).
func fileHasDirective(t *testing.T, path string) bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == nofloat64wire.Directive {
			return true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return false
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
