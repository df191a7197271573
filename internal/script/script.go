// Package script implements GraphCT's prototype scripting interface: a
// line-oriented command language executed sequentially, with the first
// line reading a graph from disk and following lines invoking one kernel
// each. Per-vertex results can be redirected to files with "=> path"; all
// other kernels print to the interpreter's output. A stack-based memory —
// "similar to that of a basic calculator" — saves and restores graphs so a
// subgraph can be analyzed and the original recalled. The language has no
// loops; an external process can monitor results and drive execution.
// Scripts are not limited to local files: "connect URL" targets a running
// graphctd daemon or router, and "fetch NAME" pulls one of its graphs
// down for local analysis (see remote.go).
package script

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"graphct/internal/bc"
	"graphct/internal/blob"
	"graphct/internal/core"
	"graphct/internal/dimacs"
	"graphct/internal/graph"
	"graphct/internal/rank"
	"graphct/internal/sssp"
	"graphct/internal/stats"
)

// Error annotates a script failure with its provenance — the script file
// (when known), the 1-based line of the failing command, and whether the
// failure was a parse/usage error or a runtime (kernel or I/O) failure —
// so drivers can report "file:line" and exit with distinct codes.
type Error struct {
	Path  string // script file; "" for inline input
	Line  int
	Parse bool // command could not be parsed vs failed while running
	Err   error
}

func (e *Error) Error() string {
	if e.Path != "" {
		return fmt.Sprintf("%s:%d: %v", e.Path, e.Line, e.Err)
	}
	return fmt.Sprintf("script line %d: %v", e.Line, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// parseError marks usage and argument errors so Run can classify them.
type parseError struct{ error }

func (p parseError) Unwrap() error { return p.error }

// parseErrf builds a parse-class error; command handlers use it for
// anything wrong with the command text itself (unknown commands, bad
// usage, malformed arguments) as opposed to failures of valid commands.
func parseErrf(format string, args ...any) error {
	return parseError{fmt.Errorf(format, args...)}
}

// Interp executes GraphCT scripts.
type Interp struct {
	tk     *core.Toolkit
	remote *remote // connected daemon or router (nil = local only)
	out    io.Writer
	dir    string // base for relative file paths
	file   string // script path for error provenance ("" when inline)
	seed   int64
	line   int
}

// noGraphNeeded names the commands that run before any graph is loaded:
// the ones that load graphs, operate on score files, or talk to a daemon.
var noGraphNeeded = map[string]bool{
	"read": true, "compare": true,
	"connect": true, "disconnect": true, "graphs": true, "fetch": true,
}

// New returns an interpreter writing kernel output to out. Relative paths
// in scripts resolve against dir ("" = current directory).
func New(out io.Writer, dir string) *Interp {
	return &Interp{out: out, dir: dir, seed: 1}
}

// SetSeed fixes the sampling seed used by kernels the interpreter runs.
func (in *Interp) SetSeed(seed int64) { in.seed = seed }

// Toolkit exposes the current toolkit (nil before any read command).
func (in *Interp) Toolkit() *core.Toolkit { return in.tk }

// Run executes a script line by line, stopping at the first error, which
// is returned as a *Error annotated with the failing line.
func (in *Interp) Run(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	in.line = 0
	for sc.Scan() {
		in.line++
		if err := in.Exec(sc.Text()); err != nil {
			var pe parseError
			return &Error{Path: in.file, Line: in.line, Parse: errors.As(err, &pe), Err: err}
		}
	}
	return sc.Err()
}

// RunFile executes the script in the named file; errors carry the file
// name and line of the failing command.
func (in *Interp) RunFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if in.dir == "" {
		in.dir = filepath.Dir(path)
	}
	in.file = path
	return in.Run(f)
}

// Exec executes one script line: ParseLine does the static validation
// (so malformed commands are rejected before any kernel state is touched
// or mutated), then the matching handler runs with the interpreter's
// graph. Handlers re-derive their typed arguments and add the
// graph-dependent checks parsing cannot do.
func (in *Interp) Exec(line string) error {
	c, err := ParseLine(line)
	if err != nil {
		return err
	}
	if c.Name == "" { // blank or comment
		return nil
	}
	args, redirect := c.Args, c.Redirect
	if !noGraphNeeded[c.Name] && in.tk == nil {
		return parseErrf("no graph loaded (missing read command)")
	}
	switch c.Name {
	case "read":
		return in.cmdRead(args)
	case "connect":
		return in.cmdConnect(args)
	case "disconnect":
		return in.cmdDisconnect()
	case "graphs":
		return in.cmdGraphs()
	case "fetch":
		return in.cmdFetch(args)
	case "print":
		return in.cmdPrint(args, redirect)
	case "save":
		return in.cmdSave(args)
	case "restore":
		return in.cmdRestore(args)
	case "extract":
		return in.cmdExtract(args, redirect)
	case "kcentrality":
		return in.cmdKCentrality(args, redirect)
	case "components":
		return in.cmdComponents()
	case "kcores":
		return in.cmdKCores(args)
	case "clustering":
		return in.cmdClustering(redirect)
	case "undirected":
		in.tk.ToUndirected()
		return nil
	case "reciprocal":
		in.tk.ReciprocalCore()
		return nil
	case "reorder":
		return in.cmdReorder(args)
	case "bfs":
		return in.cmdBFS(args)
	case "compare":
		return in.cmdCompare(args)
	case "stats":
		return in.cmdStats()
	case "sssp":
		return in.cmdSSSP(args, redirect)
	default:
		return parseErrf("unknown command %q", c.Name)
	}
}

// cmdSSSP runs weighted single-source shortest paths via delta-stepping;
// "=> file" writes per-vertex distances (-1 for unreachable).
func (in *Interp) cmdSSSP(args []string, redirect string) error {
	if len(args) != 1 {
		return parseErrf("usage: sssp SOURCE [=> dist.txt]")
	}
	src, err := strconv.Atoi(args[0])
	if err != nil || src < 0 || src >= in.tk.Graph().NumVertices() {
		return parseErrf("bad source %q", args[0])
	}
	res, err := in.tk.SSSP(int32(src))
	if err != nil {
		return err
	}
	reached := 0
	maxDist := int64(0)
	for _, d := range res.Dist {
		if d != sssp.Inf {
			reached++
			if d > maxDist {
				maxDist = d
			}
		}
	}
	if redirect != "" {
		scores := make([]float64, len(res.Dist))
		for v, d := range res.Dist {
			if d == sssp.Inf {
				scores[v] = -1
			} else {
				scores[v] = float64(d)
			}
		}
		return writeScores(in.path(redirect), scores)
	}
	fmt.Fprintf(in.out, "sssp from %d: reached %d vertices, max distance %d\n", src, reached, maxDist)
	return nil
}

// cmdStats prints the distribution characterization of Section III-C: the
// power-law exponent fit, the share of links held by the top 20% of
// vertices (the 80/20 observation), and the Gini concentration.
func (in *Interp) cmdStats() error {
	g := in.tk.Graph()
	alpha, used := stats.PowerLawAlpha(g, 4)
	fmt.Fprintf(in.out, "power-law alpha %.3f (fit over %d vertices with degree >= 4)\n", alpha, used)
	fmt.Fprintf(in.out, "top-20%% of vertices hold %.1f%% of links\n", 100*stats.TopShare(g, 0.2))
	fmt.Fprintf(in.out, "degree gini coefficient %.3f\n", stats.GiniCoefficient(g))
	return nil
}

// cmdCompare implements the analyst's accuracy workflow over saved score
// files: "compare exact.txt approx.txt 5" prints the overlap of the top
// 5% of vertices between the two rankings (the paper's normalized set
// Hamming comparison).
func (in *Interp) cmdCompare(args []string) error {
	if len(args) != 3 {
		return parseErrf("usage: compare FILE1 FILE2 TOP_PERCENT")
	}
	pct, err := strconv.ParseFloat(args[2], 64)
	if err != nil || pct <= 0 || pct > 100 {
		return parseErrf("bad top percent %q", args[2])
	}
	a, err := readScores(in.path(args[0]))
	if err != nil {
		return err
	}
	b, err := readScores(in.path(args[1]))
	if err != nil {
		return err
	}
	if len(a) != len(b) {
		return fmt.Errorf("score files disagree on vertex count: %d vs %d", len(a), len(b))
	}
	frac := pct / 100
	overlap := rank.TopAccuracy(a, b, frac)
	hamming := rank.NormalizedHamming(rank.TopFraction(a, frac), rank.TopFraction(b, frac))
	fmt.Fprintf(in.out, "top %.4g%%: overlap %.4f, normalized set hamming %.4f\n", pct, overlap, hamming)
	return nil
}

// readScores reads a per-vertex score file written by writeScores. Lines
// must be "vertex value" with vertices forming a dense 0..n-1 range in
// any order.
func readScores(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var scores []float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: malformed score line", path, line)
		}
		v, err := strconv.Atoi(fields[0])
		if err != nil || v < 0 {
			return nil, fmt.Errorf("%s:%d: bad vertex %q", path, line, fields[0])
		}
		s, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad score %q", path, line, fields[1])
		}
		for len(scores) <= v {
			scores = append(scores, 0)
		}
		scores[v] = s
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return scores, nil
}

func (in *Interp) path(p string) string {
	if filepath.IsAbs(p) || in.dir == "" {
		return p
	}
	return filepath.Join(in.dir, p)
}

func (in *Interp) cmdRead(args []string) error {
	if len(args) != 2 {
		return parseErrf("usage: read dimacs|binary|snapshot FILE")
	}
	kind, file := strings.ToLower(args[0]), in.path(args[1])
	var err error
	switch kind {
	case "dimacs":
		in.tk, err = core.LoadDIMACS(file, false, core.WithSeed(in.seed))
	case "edgelist":
		in.tk, err = core.LoadEdgeList(file, false, core.WithSeed(in.seed))
	case "binary":
		in.tk, err = core.LoadBinary(file, core.WithSeed(in.seed))
	case "snapshot":
		var snap blob.Snapshot
		if snap, err = blob.ReadSnapshotFile(file); err == nil {
			in.tk = core.New(snap.Graph, core.WithSeed(in.seed))
		}
	default:
		return parseErrf("unknown graph format %q", kind)
	}
	if err != nil {
		return err
	}
	g := in.tk.Graph()
	fmt.Fprintf(in.out, "read %s: %d vertices, %d edges\n", filepath.Base(file), g.NumVertices(), g.NumEdges())
	return nil
}

func (in *Interp) cmdPrint(args []string, redirect string) error {
	if len(args) == 0 {
		return parseErrf("usage: print diameter|degrees|components [...]")
	}
	switch strings.ToLower(args[0]) {
	case "diameter":
		// "print diameter 10" estimates from 10 percent of the
		// vertices; no argument uses the 256-source default.
		d := in.tk.Diameter()
		if len(args) >= 2 {
			pct, err := strconv.Atoi(args[1])
			if err != nil || pct <= 0 || pct > 100 {
				return parseErrf("bad diameter sample percent %q", args[1])
			}
			n := in.tk.Graph().NumVertices()
			samples := n * pct / 100
			if samples < 1 {
				samples = 1
			}
			d = stats.EstimateDiameter(in.tk.Graph(), samples, 4, in.seed)
		}
		fmt.Fprintf(in.out, "diameter estimate %d (longest sampled path %d from %d sources)\n",
			d.Estimate, d.LongestPath, d.Sources)
	case "degrees":
		s := in.tk.DegreeStats()
		fmt.Fprintf(in.out, "degrees: n %d, mean %.4f, variance %.4f, max %d\n", s.N, s.Mean, s.Variance, s.Max)
	case "components":
		return in.cmdComponents()
	default:
		return parseErrf("unknown print target %q", args[0])
	}
	_ = redirect
	return nil
}

// cmdSave handles both memories: "save graph" pushes onto the in-memory
// stack, "save snapshot FILE" writes the current graph in graphctd's
// durable snapshot format (the same bytes the daemon persists), so a
// script can hand a graph to — or pick one up from — a daemon data dir.
func (in *Interp) cmdSave(args []string) error {
	switch {
	case len(args) == 1 && strings.ToLower(args[0]) == "graph":
		in.tk.Save()
		return nil
	case len(args) == 2 && strings.ToLower(args[0]) == "snapshot":
		file := in.path(args[1])
		g := in.tk.Graph()
		if err := blob.WriteSnapshotFile(file, blob.Snapshot{Graph: g}); err != nil {
			return err
		}
		fmt.Fprintf(in.out, "saved snapshot %s: %d vertices, %d edges\n",
			filepath.Base(file), g.NumVertices(), g.NumEdges())
		return nil
	}
	return parseErrf("usage: save graph | save snapshot FILE")
}

func (in *Interp) cmdRestore(args []string) error {
	if len(args) != 1 || strings.ToLower(args[0]) != "graph" {
		return parseErrf("usage: restore graph")
	}
	return in.tk.Restore()
}

func (in *Interp) cmdExtract(args []string, redirect string) error {
	if len(args) != 2 || strings.ToLower(args[0]) != "component" {
		return parseErrf("usage: extract component N [=> file.bin]")
	}
	rank, err := strconv.Atoi(args[1])
	if err != nil {
		return parseErrf("bad component rank %q", args[1])
	}
	if err := in.tk.ExtractComponent(rank); err != nil {
		return err
	}
	g := in.tk.Graph()
	fmt.Fprintf(in.out, "extracted component %d: %d vertices, %d edges\n", rank, g.NumVertices(), g.NumEdges())
	if redirect != "" {
		return dimacs.SaveBinary(in.path(redirect), g)
	}
	return nil
}

const kcentralityUsage = "usage: kcentrality K SAMPLES [eps=E [delta=D]] [=> file]"

// parseAdaptiveArgs parses kcentrality's optional adaptive suffix
// (eps=E, then optionally delta=D). A returned eps of 0 means the suffix
// was absent — fixed-k sampling mode; with eps given, delta defaults to
// the kernel's DefaultDelta.
func parseAdaptiveArgs(extra []string) (eps, delta float64, err error) {
	if len(extra) == 0 {
		return 0, 0, nil
	}
	if !strings.HasPrefix(extra[0], "eps=") {
		return 0, 0, parseErrf(kcentralityUsage)
	}
	eps, err = strconv.ParseFloat(strings.TrimPrefix(extra[0], "eps="), 64)
	if err != nil || eps <= 0 || eps >= 1 {
		return 0, 0, parseErrf("bad %q (need 0 < eps < 1)", extra[0])
	}
	delta = bc.DefaultDelta
	if len(extra) > 1 {
		if len(extra) > 2 || !strings.HasPrefix(extra[1], "delta=") {
			return 0, 0, parseErrf(kcentralityUsage)
		}
		delta, err = strconv.ParseFloat(strings.TrimPrefix(extra[1], "delta="), 64)
		if err != nil || delta <= 0 || delta >= 1 {
			return 0, 0, parseErrf("bad %q (need 0 < delta < 1)", extra[1])
		}
	}
	return eps, delta, nil
}

func (in *Interp) cmdKCentrality(args []string, redirect string) error {
	if len(args) < 2 || len(args) > 4 {
		return parseErrf(kcentralityUsage)
	}
	k, err := strconv.Atoi(args[0])
	if err != nil || k < 0 || k > bc.MaxK {
		return parseErrf("bad k %q (supported range 0..%d)", args[0], bc.MaxK)
	}
	samples, err := strconv.Atoi(args[1])
	if err != nil {
		return parseErrf("bad sample count %q", args[1])
	}
	eps, delta, err := parseAdaptiveArgs(args[2:])
	if err != nil {
		return err
	}
	if eps > 0 {
		if k != 0 || samples != 0 {
			return parseErrf("adaptive kcentrality needs k=0 and samples=0 (eps sizes its own sample count)")
		}
		res := in.tk.ApproxCentrality(eps, delta, 0)
		if redirect != "" {
			return writeScores(in.path(redirect), res.Scores)
		}
		g := res.Guarantee
		fmt.Fprintf(in.out, "kcentrality adaptive eps=%g delta=%g samples=%d rounds=%d top vertices:\n",
			g.Epsilon, g.Delta, g.SamplesUsed, g.Rounds)
		for i, v := range res.TopK(10) {
			fmt.Fprintf(in.out, "%2d. vertex %d score %.2f\n", i+1, in.tk.OrigID(v), res.Scores[v])
		}
		return nil
	}
	res := in.tk.KCentrality(k, samples)
	if redirect != "" {
		return writeScores(in.path(redirect), res.Scores)
	}
	top := res.TopK(10)
	fmt.Fprintf(in.out, "kcentrality k=%d samples=%d top vertices:\n", k, len(res.Sources))
	for i, v := range top {
		fmt.Fprintf(in.out, "%2d. vertex %d score %.2f\n", i+1, in.tk.OrigID(v), res.Scores[v])
	}
	return nil
}

// cmdReorder relabels the current graph degree-descending for cache
// locality. Vertex ids in later per-vertex output still refer to the
// loaded graph (the toolkit composes the inverse permutation into its
// orig-id mapping), so the command changes kernel speed, not kernel
// answers.
func (in *Interp) cmdReorder(args []string) error {
	if len(args) != 1 {
		return parseErrf("usage: reorder degree")
	}
	if !strings.EqualFold(args[0], "degree") {
		return parseErrf("unknown reorder %q (want degree)", args[0])
	}
	if err := in.tk.Reorder(graph.ReorderDegree); err != nil {
		return err
	}
	g := in.tk.Graph()
	fmt.Fprintf(in.out, "reordered degree: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	return nil
}

func (in *Interp) cmdComponents() error {
	census := in.tk.ComponentCensus()
	fmt.Fprintf(in.out, "components: %d\n", len(census))
	for i, c := range census {
		if i >= 10 {
			fmt.Fprintf(in.out, "... %d more\n", len(census)-10)
			break
		}
		fmt.Fprintf(in.out, "component %d: %d vertices\n", i+1, c.Size)
	}
	return nil
}

// parseCoreLevel parses a kcores K argument: a core level in
// [0, math.MaxInt32], the range of a core number.
func parseCoreLevel(arg string) (int32, error) {
	k, err := strconv.ParseInt(arg, 10, 32)
	if err != nil || k < 0 {
		return 0, parseErrf("bad core level %q", arg)
	}
	return int32(k), nil
}

func (in *Interp) cmdKCores(args []string) error {
	if len(args) != 1 {
		return parseErrf("usage: kcores K")
	}
	k, err := parseCoreLevel(args[0])
	if err != nil {
		return err
	}
	in.tk.KCores(k)
	g := in.tk.Graph()
	fmt.Fprintf(in.out, "%d-core: %d vertices, %d edges\n", k, g.NumVertices(), g.NumEdges())
	return nil
}

func (in *Interp) cmdClustering(redirect string) error {
	if redirect != "" {
		return writeScores(in.path(redirect), in.tk.ClusteringCoefficients())
	}
	fmt.Fprintf(in.out, "global clustering coefficient %.6f\n", in.tk.GlobalClustering())
	return nil
}

func (in *Interp) cmdBFS(args []string) error {
	if len(args) != 2 {
		return parseErrf("usage: bfs SOURCE DEPTH")
	}
	src, err := strconv.Atoi(args[0])
	if err != nil || src < 0 || src >= in.tk.Graph().NumVertices() {
		return parseErrf("bad source %q", args[0])
	}
	depth, err := strconv.Atoi(args[1])
	if err != nil {
		return parseErrf("bad depth %q", args[1])
	}
	r := in.tk.BFSSummary(int32(src), depth)
	fmt.Fprintf(in.out, "bfs from %d: reached %d vertices, depth %d\n", src, r.Reached, r.Depth)
	return nil
}

// writeScores writes one score per line, "vertex value".
func writeScores(path string, scores []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for v, s := range scores {
		fmt.Fprintf(w, "%d %.10g\n", v, s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
