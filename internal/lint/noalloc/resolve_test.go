package noalloc

import (
	"os"
	"path/filepath"
	"testing"
)

// TestResolveFile pins how compiler output names are mapped back to the
// package's files, including the names a build-cache hit replays from a
// build run in another directory.
func TestResolveFile(t *testing.T) {
	root := t.TempDir()
	pkg := filepath.Join(root, "internal", "core")
	sibling := filepath.Join(root, "internal", "telemetry")
	for _, d := range []string{pkg, sibling} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{filepath.Join(pkg, "solver.go"), filepath.Join(sibling, "ring.go")} {
		if err := os.WriteFile(f, []byte("package x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ name, want string }{
		{"./solver.go", filepath.Join(pkg, "solver.go")},
		{"solver.go", filepath.Join(pkg, "solver.go")},
		{"internal/core/solver.go", filepath.Join(pkg, "solver.go")}, // replayed from the module root
		{"../telemetry/ring.go", filepath.Join(sibling, "ring.go")},
		{filepath.Join(pkg, "solver.go"), filepath.Join(pkg, "solver.go")},
		{"missing.go", filepath.Join(pkg, "missing.go")},
	} {
		if got := resolveFile(pkg, tc.name); got != tc.want {
			t.Errorf("resolveFile(%q) = %q, want %q", tc.name, got, tc.want)
		}
	}
}
