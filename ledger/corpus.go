package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"rasc/internal/analysis"
	"rasc/internal/gosrc"
	"rasc/internal/synth"
)

// pinnedDir holds the cold-real input: the non-test sources of
// internal/{core,analysis,pdm,gosrc,ir,obs,server}, copied once and
// kept under testdata so the Go toolchain never builds them and the
// input does not follow the code as it evolves.
const pinnedDir = "ledger/testdata/coldreal"

// pinnedSum is the SHA-256 over the pinned tree (sorted relative names
// and contents, see treeDigest). Set-up refuses a tree that differs.
const pinnedSum = "03b0e7f44022cc3831dee84a318be02d31c381f157367b95a56f7063327ca3c2"

// baseCorpus is the synthetic package the edit-stream and commit-rerun
// workloads edit: 8 files of 8 call-chained functions each, with the
// racy goroutine patterns on. Its findings are pinned in the oracle.
var baseCorpus = synth.GoConfig{Seed: 1, Files: 8, FuncsPerFile: 8, StmtsPerFn: 30, UnsafePerFile: 1, Racy: true}

// readPinned reads the pinned tree the way gocheck reads its command
// line, with file names relative to the tree ("internal/core/...").
func readPinned(root string) ([]gosrc.File, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if err := os.Chdir(filepath.Join(root, pinnedDir)); err != nil {
		return nil, err
	}
	defer os.Chdir(wd)
	return analysis.ReadPathFiles([]string{"internal/..."})
}

// treeDigest fingerprints a file set by name and content.
func treeDigest(files []gosrc.File) string {
	sorted := append([]gosrc.File(nil), files...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	h := sha256.New()
	for _, f := range sorted {
		fmt.Fprintf(h, "%s\x00%d\x00%s", f.Name, len(f.Src), f.Src)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// generateBase renders the synthetic base corpus.
func generateBase() []gosrc.File {
	gen := synth.GenerateGo(baseCorpus)
	files := make([]gosrc.File, len(gen))
	for i, f := range gen {
		files[i] = gosrc.File{Name: f.Name, Src: f.Src}
	}
	return files
}

// workLine matches a statement-level call of the corpus's opaque
// helper: "work(n)" or "work(<literal>)" alone on its line.
var workLine = regexp.MustCompile(`^(\t+)work\((n|[0-9]+)\)$`)

// editor produces a seeded stream of never-repeated single-function
// edits. Each edit rewrites one "work(...)" line in place as
// "work(<fresh literal>)": the callee is opaque to every checker, so
// findings are unchanged, and since no line is added or removed, no
// finding moves. The literal is fresh on every edit, so no edited file
// set is ever seen twice.
//
// Edits visit the files in turn and pick a seeded line within the file.
// An edit's cost is mostly that of the one entry it dirties, and each
// file holds one entry, so every seed gets the same mix of entries and
// the medians of two seeds compare like for like.
type editor struct {
	base  [][]string // lines of each file before any edit
	lines [][]string // current lines of each file
	names []string
	sites [][]int // per file, the lines an edit may rewrite
	rng   *rand.Rand
	token int64
	edits int
}

func newEditor(files []gosrc.File, seed int64) (*editor, error) {
	ed := &editor{rng: rand.New(rand.NewSource(seed))}
	for _, f := range files {
		ls := strings.Split(f.Src, "\n")
		var sites []int
		for li, l := range ls {
			if workLine.MatchString(l) {
				sites = append(sites, li)
			}
		}
		if len(sites) == 0 {
			return nil, fmt.Errorf("%s has no line an edit may rewrite", f.Name)
		}
		ed.sites = append(ed.sites, sites)
		ed.base = append(ed.base, ls)
		ed.lines = append(ed.lines, append([]string(nil), ls...))
		ed.names = append(ed.names, f.Name)
	}
	// Literals far above anything the generator writes.
	ed.token = 1_000_000 + ed.rng.Int63n(1_000_000_000)
	return ed, nil
}

// next rewrites one seeded site and returns the index of the file it
// changed and the file's new source.
func (ed *editor) next() (int, gosrc.File) {
	fi := ed.edits % len(ed.lines)
	ed.edits++
	li := ed.sites[fi][ed.rng.Intn(len(ed.sites[fi]))]
	ed.token++
	l := ed.lines[fi][li]
	indent := l[:len(l)-len(strings.TrimLeft(l, "\t"))]
	ed.lines[fi][li] = indent + "work(" + strconv.FormatInt(ed.token, 10) + ")"
	return fi, gosrc.File{Name: ed.names[fi], Src: strings.Join(ed.lines[fi], "\n")}
}

// undo restores file fi to its unedited lines.
func (ed *editor) undo(fi int) {
	copy(ed.lines[fi], ed.base[fi])
}

// files returns the current file set.
func (ed *editor) files() []gosrc.File {
	out := make([]gosrc.File, len(ed.lines))
	for i := range ed.lines {
		out[i] = gosrc.File{Name: ed.names[i], Src: strings.Join(ed.lines[i], "\n")}
	}
	return out
}
