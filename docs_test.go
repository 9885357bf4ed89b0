package sting

import (
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
// back-quoted bare *.json/*.txt name; every Benchmark…/Test… identifier in
// DESIGN.md's experiment index and in EXPERIMENTS.md is declared in some
// _test.go (a name followed by * or { is a prefix).
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
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir // build outputs, VCS
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
	var (
		code      = regexp.MustCompile("(?s)```.*?```|`[^`]+`") // a code span may wrap across lines
		makeCall  = regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`)
		bareFile  = regexp.MustCompile(`^[A-Za-z0-9_.-]+\.(json|txt)$`)
		repoPath  = regexp.MustCompile(`^(cmd|scripts|internal)/[\w./-]+$`)
		testIdent = regexp.MustCompile(`\b((?:Benchmark|Test)[A-Z]\w*)([*{]?)`)
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
			span = strings.Trim(span, "`")
			if bareFile.MatchString(span) && !operatorFiles[span] {
				if _, err := os.Stat(span); err != nil {
					t.Errorf("%s: `%s` is not a file at the root", doc, span)
				}
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
