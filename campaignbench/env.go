package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the user+sys CPU time of this process plus that of every
// child it has reaped (pool children are reaped when the pool closes).
func cpuTime() time.Duration {
	var self, kids syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// peakRSS returns the peak resident set size of this process and of the
// largest child it has reaped, in bytes (Linux reports KiB).
func peakRSS() (self, child int64) {
	var s, c syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &s)
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &c)
	return s.Maxrss << 10, c.Maxrss << 10
}

// provenance identifies the machine, toolchain and code a report came
// from.
type provenance struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Seed       int64  `json:"seed"`
}

func collectProvenance(seed int64) provenance {
	return provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		SourceHash: sourceHash("."),
		Seed:       seed,
	}
}

// commit is the VCS revision the driver was built from, when the build
// saw one ("unknown" in a checkout that is not a git repository; the
// source hash identifies the code either way).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceHash hashes go.mod and every .go file under cmd/ and internal/
// of the checkout at root, in path order: the code the benchmark ran.
func sourceHash(root string) string {
	var paths []string
	paths = append(paths, "go.mod")
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				rel, _ := filepath.Rel(root, p)
				paths = append(paths, rel)
			}
			return nil
		})
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(filepath.Join(root, p))
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
