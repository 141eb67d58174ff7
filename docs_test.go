package emigre_test

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	docSpan      = regexp.MustCompile("`([^`\n]+)`")
	docTestName  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z_]\w*`)
	docTestFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	docPath      = regexp.MustCompile(`^[\w.-]+(?:/[\w.-]+)*/?$`)
	docBinary    = regexp.MustCompile(`\bemigre-[a-z]+(?:-[a-z]+)*`)
	docRoadmapNo = regexp.MustCompile(`ROADMAP(?:\s+items?)?\s+\d|\bitems?\s+\d+\S*\s+of\s+the\s+ROADMAP`)
)

// docFileExts are the extensions that make a bare backticked name a
// file citation rather than, say, a Go identifier.
var docFileExts = map[string]bool{".go": true, ".md": true, ".json": true, ".sh": true, ".txt": true, ".csv": true, ".yml": true}

// TestDocReferencesExist keeps the prose documents in step with the
// code they describe. In DESIGN.md, README.md and EXPERIMENTS.md every
// backticked test, benchmark or fuzz target must be defined in some
// _test.go file, every backticked repository path (one under a
// top-level directory, or a file name with a known extension, matched
// as a path suffix) must exist, and every emigre-* command must be a
// directory under cmd/. DESIGN.md and README.md must not cite ROADMAP
// item numbers, which change as the roadmap moves on: they name the
// idea instead.
func TestDocReferencesExist(t *testing.T) {
	var files []string // every file and directory, slash-separated
	topDirs := map[string]bool{}
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		p = filepath.ToSlash(p)
		files = append(files, p)
		if d.IsDir() && !strings.Contains(p, "/") {
			topDirs[p] = true
		}
		if strings.HasSuffix(p, "_test.go") {
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			for _, m := range docTestFunc.FindAllSubmatch(src, -1) {
				funcs[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(cited string) bool {
		cited = strings.TrimSuffix(cited, "/")
		for _, f := range files {
			if f == cited || strings.HasSuffix(f, "/"+cited) {
				return true
			}
		}
		return false
	}

	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		for _, span := range docSpan.FindAllStringSubmatch(text, -1) {
			for _, name := range docTestName.FindAllString(span[1], -1) {
				if !funcs[name] {
					t.Errorf("%s cites %s, which no _test.go file defines", doc, name)
				}
			}
			for _, field := range strings.Fields(span[1]) {
				p := strings.TrimPrefix(strings.TrimRight(field, ",.:;"), "./")
				if !docPath.MatchString(p) {
					continue
				}
				top, _, nested := strings.Cut(p, "/")
				if (nested && topDirs[top]) || docFileExts[path.Ext(p)] {
					if !exists(p) {
						t.Errorf("%s cites path %s, which does not exist", doc, p)
					}
				}
			}
		}
		for _, bin := range docBinary.FindAllString(text, -1) {
			if !exists("cmd/" + bin) {
				t.Errorf("%s cites command %s, which has no cmd/%s", doc, bin, bin)
			}
		}
		if doc == "EXPERIMENTS.md" {
			continue
		}
		for _, loc := range docRoadmapNo.FindAllStringIndex(text, -1) {
			line := 1 + strings.Count(text[:loc[0]], "\n")
			t.Errorf("%s:%d cites a ROADMAP item number (%q); name the idea instead", doc, line, text[loc[0]:loc[1]])
		}
	}
}
