package sting

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameThingsThatExist: the documents may only name things that
// exist. In README.md, DESIGN.md, EXPERIMENTS.md and the verify skill, every
// `make <target>` inside code is a target of the Makefile, every cmd/…,
// scripts/… or internal/… path inside code is on disk, and so is every
// back-quoted bare *.json/*.txt name; every back-quoted bare *.go name
// (with or without a :line suffix) names a file somewhere in the tree, and
// every sting.Name inside code is declared in sting.go; every Benchmark…/Test… identifier in DESIGN.md's
// experiment index and in EXPERIMENTS.md is declared in some _test.go (a
// name followed by * or { is a prefix); and every -flag of a command line
// inside code that runs sting, stingd, stingtop or tracecat, or that is a
// bare -flag, is declared by some flag set under cmd/, scripts/, examples/
// or in benchmark/main.go (a line that starts with `go ` carries toolchain
// flags and is not checked, and a bare span may name a `go test` flag).
func TestDocsNameThingsThatExist(t *testing.T) {
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(read("Makefile"), -1) {
		targets[m[1]] = true
	}
	var tests strings.Builder
	goFiles := map[string]bool{"_test.go": true} // the generic suffix, not a file
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir // build outputs, VCS
		}
		if err == nil && strings.HasSuffix(path, ".go") {
			goFiles[d.Name()] = true
		}
		if err == nil && strings.HasSuffix(path, "_test.go") {
			tests.WriteString(read(path))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := tests.String()
	flags := map[string]bool{}
	goTestFlags := map[string]bool{"bench": true, "benchmem": true, "benchtime": true, "count": true,
		"cpu": true, "memprofile": true, "memprofilerate": true, "race": true, "run": true}
	flagDecl := regexp.MustCompile(`\b(?:flag|fs)\.[A-Z]\w*\((?:&[\w.]+, )?"([\w-]+)"`)
	for _, dir := range []string{"cmd", "scripts", "examples", "benchmark/main.go"} {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err == nil && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				for _, m := range flagDecl.FindAllStringSubmatch(read(path), -1) {
					flags[m[1]] = true
				}
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	facade := map[string]bool{}
	f, err := parser.ParseFile(token.NewFileSet(), "sting.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls { // sting.go declares aliases, vars and consts only
		for _, spec := range d.(*ast.GenDecl).Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				facade[spec.Name.Name] = true
			case *ast.ValueSpec:
				for _, n := range spec.Names {
					facade[n.Name] = true
				}
			}
		}
	}
	var (
		code      = regexp.MustCompile("(?s)```.*?```|`[^`]+`") // a code span may wrap across lines
		makeCall  = regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`)
		bareFile  = regexp.MustCompile(`^[A-Za-z0-9_.-]+\.(json|txt)$`)
		bareGo    = regexp.MustCompile(`^([A-Za-z0-9_.-]+\.go)(:\d+)?$`)
		repoPath  = regexp.MustCompile(`^(cmd|scripts|internal)/[\w./-]+$`)
		testIdent = regexp.MustCompile(`\b((?:Benchmark|Test)[A-Z]\w*)([*{]?)`)
		facadeRef = regexp.MustCompile(`\bsting\.([A-Z]\w*)`)
		flagCmd   = regexp.MustCompile(`^(?:(?:sting|stingd|stingtop|tracecat)\s|-)`)
		flagUse   = regexp.MustCompile(`(?:^|\s)--?([a-z][\w-]*)`)
	)
	operatorFiles := map[string]bool{"nodes.json": true} // written by whoever runs a cluster, not committed

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text := read(doc)
		for _, span := range code.FindAllString(text, -1) {
			for _, m := range makeCall.FindAllStringSubmatch(span, -1) {
				if !targets[m[1]] {
					t.Errorf("%s: `make %s` is not a Makefile target", doc, m[1])
				}
			}
			for _, m := range facadeRef.FindAllStringSubmatch(span, -1) {
				if !facade[m[1]] {
					t.Errorf("%s: sting.%s is not declared in sting.go", doc, m[1])
				}
			}
			span = strings.Trim(span, "`")
			for _, line := range strings.Split(span, "\n") {
				if line = strings.TrimSpace(line); !flagCmd.MatchString(line) {
					continue // a fenced block's language tag, comments and go lines included
				}
				for _, m := range flagUse.FindAllStringSubmatch(line, -1) {
					if !flags[m[1]] && !(line[0] == '-' && goTestFlags[m[1]]) {
						t.Errorf("%s: flag -%s in `%s` is declared by no flag set", doc, m[1], line)
					}
				}
			}
			if bareFile.MatchString(span) && !operatorFiles[span] {
				if _, err := os.Stat(span); err != nil {
					t.Errorf("%s: `%s` is not a file at the root", doc, span)
				}
			}
			if m := bareGo.FindStringSubmatch(span); m != nil && !goFiles[m[1]] {
				t.Errorf("%s: `%s` names no .go file in the tree", doc, span)
			}
			for _, tok := range strings.Fields(span) {
				tok = strings.TrimSuffix(strings.TrimPrefix(strings.Trim(tok, `"',;()`), "./"), "/...")
				if !repoPath.MatchString(tok) {
					continue
				}
				if _, err := os.Stat(tok); err != nil {
					t.Errorf("%s: path %s does not exist", doc, tok)
				}
			}
		}
		switch doc {
		case "DESIGN.md":
			_, text, _ = strings.Cut(text, "\n## 3. Experiment index")
			text, _, _ = strings.Cut(text, "\n## ")
		case "EXPERIMENTS.md":
		default:
			continue
		}
		for _, m := range testIdent.FindAllStringSubmatch(text, -1) {
			decl := "func " + m[1]
			if m[2] == "" {
				decl += "("
			}
			if !strings.Contains(declared, decl) {
				t.Errorf("%s: %s%s is declared in no _test.go", doc, m[1], m[2])
			}
		}
	}
}
