// Package noalloc defines an analyzer that turns the benchmark suite's
// 0 allocs/op gates into a static guarantee.
//
// A function whose doc comment carries the //soda:noalloc directive must not
// heap-allocate: the analyzer compiles the function's package with
// go build -gcflags=-m, parses the compiler's escape-analysis diagnostics,
// and reports every "escapes to heap" / "moved to heap" line attributed to a
// tagged function's body. Unlike a benchmark gate, the check needs no
// representative workload and cannot be dodged by a lucky steady state: if
// the compiler can prove an allocation site reachable, the finding fires on
// every CI run. The build cache replays -m diagnostics on cache hits, so
// repeated soda-vet runs cost one cache probe, not one compile.
//
// The diagnostics come from the real gc escape analysis, which makes the
// check exact for the shapes it sees but leaves known false negatives
// (see DESIGN.md "Static invariants"): an allocation inside a small callee
// that gets inlined into the tagged function is attributed to the callee's
// source position, so only tagging the callee too closes that hole; a
// generic function is compiled, and so checked, only through the
// instantiations in its own package (telemetry.Ring through the decision
// ring's), so an escape specific to a type argument used only elsewhere goes
// unseen; and escape analysis runs on the plain build, so //soda:noalloc in a
// _test.go file cannot be enforced — the analyzer reports the directive as
// ignored rather than letting it silently rot.
package noalloc

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/lint"
)

// Directive marks a function that must not heap-allocate.
const Directive = "//soda:noalloc"

// Analyzer checks //soda:noalloc functions against the compiler's escape
// analysis.
var Analyzer = &lint.Analyzer{
	Name: "noalloc",
	Doc:  "functions tagged //soda:noalloc must not heap-allocate, per go build -gcflags=-m escape analysis",
	Run:  run,
}

// taggedFunc is one //soda:noalloc function's identity and body extent.
type taggedFunc struct {
	name      string
	file      string
	startLine int
	endLine   int
}

func run(pass *lint.Pass) error {
	var tagged []taggedFunc
	dir := ""
	// Directive comments consumed as function docs; leftovers are misplaced.
	used := make(map[*ast.Comment]bool)
	for _, f := range pass.Files {
		fname := pass.Fset.Position(f.Pos()).Filename
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			c := directiveComment(fn.Doc)
			if c == nil {
				continue
			}
			used[c] = true
			if strings.HasSuffix(fname, "_test.go") {
				pass.Reportf(c.Pos(), "%s on %s is ignored in test files: escape analysis runs on the plain build, not the test corpus", Directive, funcName(fn))
				continue
			}
			tagged = append(tagged, taggedFunc{
				name:      funcName(fn),
				file:      fname,
				startLine: pass.Fset.Position(fn.Pos()).Line,
				endLine:   pass.Fset.Position(fn.End()).Line,
			})
			dir = filepath.Dir(fname)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if directiveLine(c.Text) && !used[c] {
					pass.Reportf(c.Pos(), "%s must be the doc comment of a function declaration", Directive)
				}
			}
		}
	}
	if len(tagged) == 0 {
		return nil
	}

	diags, err := escapeDiagnostics(dir)
	if err != nil {
		return fmt.Errorf("noalloc: %v", err)
	}
	// A generic function is escape-analysed through its instantiations, and
	// the compiler echoes each body finding at the declaration line for the
	// instantiation's wrapper. Index the body findings to drop those echoes.
	owner := func(d escapeDiag) *taggedFunc {
		for i := range tagged {
			if t := &tagged[i]; d.file == t.file && d.line >= t.startLine && d.line <= t.endLine {
				return t
			}
		}
		return nil
	}
	type bodyKey struct {
		fn  *taggedFunc
		msg string
	}
	inBody := make(map[bodyKey]bool)
	for _, d := range diags {
		if t := owner(d); t != nil && d.line > t.startLine {
			inBody[bodyKey{t, d.msg}] = true
		}
	}
	lineStarts := fileIndex(pass)
	for _, d := range diags {
		t := owner(d)
		if t == nil || (d.line == t.startLine && inBody[bodyKey{t, d.msg}]) {
			continue
		}
		pos := diagPos(pass.Fset, lineStarts[d.file], d.line, d.col)
		pass.Reportf(pos, "heap allocation in %s function %s: %s", Directive, t.name, d.msg)
	}
	return nil
}

// directiveComment returns the doc comment line carrying the directive.
func directiveComment(doc *ast.CommentGroup) *ast.Comment {
	if doc == nil {
		return nil
	}
	for _, c := range doc.List {
		if directiveLine(c.Text) {
			return c
		}
	}
	return nil
}

func directiveLine(text string) bool {
	return text == Directive || strings.HasPrefix(text, Directive+" ")
}

// funcName renders a function like the other analyzers: (Type).Method for
// methods, the bare name otherwise.
func funcName(fn *ast.FuncDecl) string {
	if name := lint.ReceiverType(fn); name != "" {
		return "(" + name + ")." + fn.Name.Name
	}
	return fn.Name.Name
}

// escapeDiag is one parsed -gcflags=-m line attributed to a source position.
type escapeDiag struct {
	file string // absolute path
	line int
	col  int
	msg  string
}

var diagRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// escapeDiagnostics compiles the package in dir and returns the heap-escape
// diagnostics the compiler attributes to it. The -gcflags value is unscoped,
// which the go tool applies to the named packages only — dependencies come
// from the build cache without diagnostics. -o discards the output so main
// packages do not drop binaries into the tree.
func escapeDiagnostics(dir string) ([]escapeDiag, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m", "-o", os.DevNull, ".")
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m in %s: %v\n%s", dir, err, out.String())
	}
	var diags []escapeDiag
	for _, line := range strings.Split(out.String(), "\n") {
		m := diagRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if !heapEscape(msg) {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		diags = append(diags, escapeDiag{file: filepath.Clean(file), line: ln, col: col, msg: msg})
	}
	return diags, nil
}

// heapEscape reports whether one -m message documents a heap allocation:
// "... escapes to heap" (but not "does not escape") and "moved to heap: x".
// Inlining reports, parameter leaks and non-escape proofs all pass.
func heapEscape(msg string) bool {
	if strings.Contains(msg, "does not escape") {
		return false
	}
	return strings.Contains(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap:")
}

// fileIndex maps each file's absolute path to its token.File, for converting
// compiler positions back into fset positions.
func fileIndex(pass *lint.Pass) map[string]*token.File {
	idx := make(map[string]*token.File, len(pass.Files))
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf != nil {
			idx[tf.Name()] = tf
		}
	}
	return idx
}

// diagPos converts a (line, col) compiler position into a token.Pos in tf,
// clamping out-of-range values to the line start (or the file start).
func diagPos(fset *token.FileSet, tf *token.File, line, col int) token.Pos {
	if tf == nil {
		return token.NoPos
	}
	if line < 1 || line > tf.LineCount() {
		return tf.Pos(0)
	}
	pos := tf.LineStart(line)
	if off := tf.Offset(pos) + col - 1; col >= 1 && off < tf.Size() {
		pos = tf.Pos(off)
	}
	return pos
}
