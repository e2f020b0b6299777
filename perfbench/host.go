package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostRecord identifies the machine and the code a result was measured
// on; every result line carries one, so rows from different hosts or
// commits are never compared by accident.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Workers    int    `json:"workers"`
}

func newHostRecord(root string, workers int) hostRecord {
	return hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commitID(root),
		Workers:    workers,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo; "unknown" on
// systems without it.
func cpuModel() string {
	fh, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID names the measured code: the git HEAD when the checkout is a
// repository, otherwise a content hash of the Go sources and module
// files ("tree:<hash>"), which identifies the same code just as well.
func commitID(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || strings.HasSuffix(path, ".json")) {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, fh)
		fh.Close()
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
