package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path"
	"strconv"
	"strings"
)

// layerOf names the layer a profiled function belongs to, or "" when it
// belongs to none: standard-library code outside the Go runtime (sort,
// sync, encoding/json, ...) and the harness's own code (package main)
// count against profile coverage.
func layerOf(function, file string) string {
	pkg := funcPackage(function)
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/abi" || !strings.Contains(function, "."):
		// The runtime's assembly routines, such as gcWriteBarrier, are
		// named without a package.
		return "runtime"
	case pkg == "ropsim":
		return "ropsim"
	case strings.HasPrefix(pkg, "ropsim/internal/"):
		switch name := strings.TrimPrefix(pkg, "ropsim/internal/"); name {
		case "memctrl":
			switch path.Base(file) {
			case "controller.go", "bankindex.go":
				return "memctrl.sched"
			case "refresh.go":
				return "memctrl.refresh"
			case "wake.go":
				return "memctrl.wake"
			}
			return "memctrl.other"
		case "core", "vldp":
			return "rop"
		case "cache":
			return "llc"
		default:
			return name
		}
	}
	return ""
}

// funcPackage extracts the import path from a symbol name such as
// "ropsim/internal/memctrl.(*Controller).tick.func1" or
// "ropsim/internal/runner.Run[...]".
func funcPackage(function string) string {
	s := function
	if i := strings.IndexByte(s, '['); i >= 0 {
		s = s[:i]
	}
	slash := strings.LastIndexByte(s, '/')
	if dot := strings.IndexByte(s[slash+1:], '.'); dot >= 0 {
		return s[:slash+1+dot]
	}
	return s
}

// layerShares groups the CPU profile at file by source line with
// `go tool pprof` and returns each layer's share of the samples, plus
// coverage: the share charged to any layer. A sample is charged to the
// layer of its leaf frame, inlined frames included.
func layerShares(file string) (shares map[string]float64, coverage float64, err error) {
	// The profile names its functions and lines already; -symbolize=none
	// and the two directories keep pprof from looking for binaries or
	// writing anywhere outside the output directory.
	cmd := exec.Command("go", "tool", "pprof", "-top", "-flat", "-nodecount=0", "-nodefraction=0", "-lines", "-unit=ms", "-symbolize=none", file)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+outDir, "PPROF_BINARY_PATH="+outDir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTop(out)
}

// parseTop reads the table `go tool pprof -top -lines -unit=ms` prints,
// with every row kept so that the flat column sums to the total. Its rows
// are
//
//	flat flat% sum% cum cum% function file:line [(inline)]
func parseTop(out []byte) (shares map[string]float64, coverage float64, err error) {
	counts := map[string]float64{}
	var total, covered float64
	table := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !table {
			table = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 7 {
			return nil, 0, fmt.Errorf("pprof: bad row %q", sc.Text())
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, 0, fmt.Errorf("pprof: bad row %q", sc.Text())
		}
		total += flat
		// Generic shapes can put spaces in a function name, but only
		// after its package path; the file is the last field but the
		// inline marker.
		file := f[len(f)-1]
		if file == "(inline)" {
			file = f[len(f)-2]
		}
		if i := strings.LastIndexByte(file, ':'); i >= 0 {
			file = file[:i]
		}
		if l := layerOf(f[5], file); l != "" {
			counts[l] += flat
			covered += flat
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if total == 0 {
		return nil, 0, errors.New("pprof: no samples")
	}
	shares = make(map[string]float64, len(counts))
	for l, n := range counts {
		shares[l] = n / total
	}
	return shares, covered / total, nil
}
