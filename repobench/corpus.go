package main

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"

	"pbsim/internal/analysis"
)

// The pbcheck-repo corpus is the repository as of corpusCommit, kept
// as a git archive of its module file and non-test Go sources outside
// testdata (exactly what a default pbcheck sweep reads). It is pinned
// by content hash, so the sweep never moves with later code.
const (
	corpusCommit = "b1648d4470f97b2ffff4604c4f2fa14928e2172e"
	corpusSHA256 = "57d0d3224df3132d7f2d76b0fc14c6a9355c46b7ec763d2b7d64018b83d09d64"
)

func corpusPath(dir string) string {
	return filepath.Join(dir, "corpus", "pbsim-"+corpusCommit[:12]+".tar.gz")
}

// regenCorpus writes the corpus archive from git. It needs a git
// checkout that holds corpusCommit; it prints the hash to pin.
func regenCorpus(dir string) error {
	ls, err := exec.Command("git", "ls-tree", "-r", "--name-only", corpusCommit).Output()
	if err != nil {
		return fmt.Errorf("git ls-tree %s: %w (the pinned commit must be present in git)", corpusCommit, err)
	}
	args := []string{"archive", "--format=tar.gz", "-o", corpusPath(dir), corpusCommit, "go.mod"}
	for _, f := range strings.Split(strings.TrimSpace(string(ls)), "\n") {
		if strings.HasSuffix(f, ".go") && !strings.HasSuffix(f, "_test.go") && !strings.Contains("/"+f, "/testdata/") {
			args = append(args, f)
		}
	}
	if out, err := exec.Command("git", args...).CombinedOutput(); err != nil {
		return fmt.Errorf("git archive: %w: %s", err, out)
	}
	sum, err := fileSHA256(corpusPath(dir))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "repobench: wrote %s (sha256 %s)\n", corpusPath(dir), sum)
	return nil
}

func fileSHA256(p string) (string, error) {
	data, err := os.ReadFile(p)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// extractCorpus verifies the pinned archive and unpacks it into a
// fresh directory under dst. A missing or altered archive is an error:
// the workload then counts as failed rather than sweeping something
// else.
func extractCorpus(dir, dst string) (string, error) {
	p := corpusPath(dir)
	data, err := os.ReadFile(p)
	if err != nil {
		return "", fmt.Errorf("pinned corpus for commit %s: %w", corpusCommit, err)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != corpusSHA256 {
		return "", fmt.Errorf("pinned corpus %s has sha256 %x, want %s", p, sum, corpusSHA256)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return "", err
	}
	root, err := os.MkdirTemp(dst, "corpus-")
	if err != nil {
		return "", err
	}
	tr := tar.NewReader(zr)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
		if h.Typeflag != tar.TypeReg {
			continue
		}
		name := path.Clean(h.Name)
		if path.IsAbs(name) || strings.HasPrefix(name, "../") {
			return "", fmt.Errorf("corpus entry %q escapes the corpus", h.Name)
		}
		out := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return "", err
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(out, body, 0o644); err != nil {
			return "", err
		}
	}
	return root, nil
}

// packageDirs counts the corpus directories holding Go files, walked
// independently of the loader so a sweep that silently drops a package
// shows as a mismatch.
func packageDirs(root string) (int, error) {
	dirs := map[string]bool{}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") {
			dirs[filepath.Dir(p)] = true
		}
		return nil
	})
	return len(dirs), err
}

// setupCheck is pbcheck's pre-timing work: loader creation and pattern
// expansion over the extracted corpus.
func setupCheck(root string) (*checkSetup, error) {
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return nil, err
	}
	dirs, err := analysis.ExpandPatterns(loader.Root, loader.Module, []string{"./..."})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return &checkSetup{dir: loader.Root, dirs: dirs}, nil
}
