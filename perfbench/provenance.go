package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"eleos/internal/nvme"
)

// provenance records where and on what code a result was measured. The
// benchmark may run from a checkout that is not a git repository, so a
// hash of the Go sources it was built from stands beside the git SHA.
func provenance() map[string]string {
	root := repoRoot()
	return map[string]string{
		"git_sha":     gitOutput(root, "rev-parse", "HEAD"),
		"git_dirty":   gitDirty(root),
		"source_hash": sourceHash(root),
		"go_version":  runtime.Version(),
		"gomaxprocs":  fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":       fmt.Sprint(runtime.NumCPU()),
		"cpu_model":   cpuModel(),
		"os_arch":     runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// repoRoot is the directory holding the repository's go.mod: the parent
// of the benchmark's directory when run from the repository root.
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module eleos\n") {
			return dir
		}
	}
	return "."
}

// gitOutput runs git in dir, but only when dir is the top of its own
// repository: a checkout without .git must not report an enclosing
// repository's state.
func gitOutput(dir string, args ...string) string {
	const none = "unknown (not a git checkout)"
	abs, err := filepath.Abs(dir)
	if err != nil {
		return none
	}
	top, err := exec.Command("git", "-C", abs, "rev-parse", "--show-toplevel").Output()
	if err != nil || filepath.Clean(strings.TrimSpace(string(top))) != abs {
		return none
	}
	out, err := exec.Command("git", append([]string{"-C", abs}, args...)...).Output()
	if err != nil {
		return none
	}
	return strings.TrimSpace(string(out))
}

func gitDirty(dir string) string {
	out := gitOutput(dir, "status", "--porcelain")
	if strings.HasPrefix(out, "unknown") {
		return "unknown"
	}
	return fmt.Sprint(out != "")
}

// sourceHash hashes every .go file and go.mod under root, in path order.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// configLines spells out the workload, server and core configuration of
// a run.
func configLines(name string, p params) []string {
	lines := []string{fmt.Sprintf("params %+v", p)}
	switch name {
	case "ingest", "kv-zipf":
		geo := wireGeometry(p)
		cfg := wireConfig(p, nil)
		lines = append(lines,
			fmt.Sprintf("geometry %+v", geo),
			fmt.Sprintf("core GCFreeFraction=%g GCMaxRounds=%d GCPolicy=%v AutoCheckpointLogBytes=%d ReadCacheBytes=%d Provision=%+v",
				cfg.GCFreeFraction, cfg.GCMaxRounds, cfg.GCPolicy, cfg.AutoCheckpointLogBytes, cfg.ReadCacheBytes, cfg.Provision),
			fmt.Sprintf("server %+v", serverConfig()),
			fmt.Sprintf("load %d connections from one process, one session each", conns))
		if name == "ingest" {
			lines = append(lines, fmt.Sprintf("ingest closed loop; flush %d-%d B log-uniform; pages %d-%d B; NAND wall latency scale 0",
				ingestMinFlush, ingestMaxFlush, ingestMinPage, ingestMaxPage))
		} else {
			lines = append(lines, fmt.Sprintf("kv-zipf open loop at %g ops/s; %d%% updates, %d%% of reads as %d-key read_batch; values %d-%d B; zipf theta %g; NAND wall latency scale 1",
				p.kvRate, kvUpdatePct, kvBatchPct, kvBatchKeys, kvMinValue, kvMaxValue, kvZipfTheta))
		}
	case "tpcc-replay":
		lines = append(lines,
			fmt.Sprintf("geometry %+v", replayGeometry(p)),
			fmt.Sprintf("core DefaultConfig with AutoCheckpointLogBytes=%d; buffer %d B; nvme profile %+v", replayConfig(p).AutoCheckpointLogBytes, replayBufferBytes, nvme.HighEnd()))
	}
	return lines
}
