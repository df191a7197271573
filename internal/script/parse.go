package script

import (
	"strconv"
	"strings"

	"graphct/internal/bc"
)

// Command is one parsed script line: the lower-cased command word, its
// raw argument fields and the "=> file" redirect target (empty when
// absent). Blank and comment lines parse to the zero Command.
type Command struct {
	Name     string
	Args     []string
	Redirect string
}

// ParseLine is the static half of script interpretation: it splits a line
// into command, arguments and redirect, and validates everything knowable
// without a loaded graph — command existence, arity, argument syntax and
// static ranges. Graph-dependent checks (a BFS source within the loaded
// vertex count, a component rank that exists) stay with execution.
//
// Every error ParseLine returns is parse-class, and ParseLine never
// panics on arbitrary input — the property FuzzScriptParse enforces.
func ParseLine(line string) (Command, error) {
	redirect := ""
	hasRedirect := false
	if idx := strings.Index(line, "=>"); idx >= 0 {
		hasRedirect = true
		redirect = strings.TrimSpace(line[idx+2:])
		line = line[:idx]
	}
	fields := strings.Fields(line)
	if len(fields) > 0 && strings.HasPrefix(fields[0], "#") {
		return Command{}, nil
	}
	if hasRedirect && redirect == "" {
		return Command{}, parseErrf("missing file after \"=>\"")
	}
	if len(fields) == 0 {
		if hasRedirect {
			return Command{}, parseErrf("\"=>\" redirect without a command")
		}
		return Command{}, nil
	}
	cmd := Command{Name: strings.ToLower(fields[0]), Args: fields[1:], Redirect: redirect}
	check, ok := staticChecks[cmd.Name]
	if !ok {
		return Command{}, parseErrf("unknown command %q", cmd.Name)
	}
	if check != nil {
		if err := check(cmd.Args); err != nil {
			return Command{}, err
		}
	}
	return cmd, nil
}

// staticChecks maps every command to its graph-independent argument
// validation; a nil check accepts any arguments. The map doubles as the
// command registry — membership decides "unknown command".
var staticChecks = map[string]func(args []string) error{
	"read": func(args []string) error {
		if len(args) != 2 {
			return parseErrf("usage: read dimacs|binary|snapshot FILE")
		}
		switch strings.ToLower(args[0]) {
		case "dimacs", "edgelist", "binary", "snapshot":
			return nil
		}
		return parseErrf("unknown graph format %q", strings.ToLower(args[0]))
	},
	"print": func(args []string) error {
		if len(args) == 0 {
			return parseErrf("usage: print diameter|degrees|components [...]")
		}
		switch strings.ToLower(args[0]) {
		case "diameter":
			if len(args) >= 2 {
				pct, err := strconv.Atoi(args[1])
				if err != nil || pct <= 0 || pct > 100 {
					return parseErrf("bad diameter sample percent %q", args[1])
				}
			}
			return nil
		case "degrees", "components":
			return nil
		}
		return parseErrf("unknown print target %q", args[0])
	},
	"save": func(args []string) error {
		switch {
		case len(args) == 1 && strings.ToLower(args[0]) == "graph":
			return nil
		case len(args) == 2 && strings.ToLower(args[0]) == "snapshot":
			return nil
		}
		return parseErrf("usage: save graph | save snapshot FILE")
	},
	"restore": func(args []string) error {
		if len(args) != 1 || strings.ToLower(args[0]) != "graph" {
			return parseErrf("usage: restore graph")
		}
		return nil
	},
	"extract": func(args []string) error {
		if len(args) != 2 || strings.ToLower(args[0]) != "component" {
			return parseErrf("usage: extract component N [=> file.bin]")
		}
		if _, err := strconv.Atoi(args[1]); err != nil {
			return parseErrf("bad component rank %q", args[1])
		}
		return nil
	},
	"kcentrality": func(args []string) error {
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
		eps, _, err := parseAdaptiveArgs(args[2:])
		if err != nil {
			return err
		}
		if eps > 0 && (k != 0 || samples != 0) {
			return parseErrf("adaptive kcentrality needs k=0 and samples=0 (eps sizes its own sample count)")
		}
		return nil
	},
	"components": nil,
	"kcores": func(args []string) error {
		if len(args) != 1 {
			return parseErrf("usage: kcores K")
		}
		_, err := parseCoreLevel(args[0])
		return err
	},
	"clustering": nil,
	"undirected": nil,
	"reciprocal": nil,
	"reorder": func(args []string) error {
		if len(args) != 1 {
			return parseErrf("usage: reorder degree")
		}
		if !strings.EqualFold(args[0], "degree") {
			return parseErrf("unknown reorder %q (want degree)", args[0])
		}
		return nil
	},
	"bfs": func(args []string) error {
		if len(args) != 2 {
			return parseErrf("usage: bfs SOURCE DEPTH")
		}
		if src, err := strconv.Atoi(args[0]); err != nil || src < 0 {
			return parseErrf("bad source %q", args[0])
		}
		if _, err := strconv.Atoi(args[1]); err != nil {
			return parseErrf("bad depth %q", args[1])
		}
		return nil
	},
	"compare": func(args []string) error {
		if len(args) != 3 {
			return parseErrf("usage: compare FILE1 FILE2 TOP_PERCENT")
		}
		if pct, err := strconv.ParseFloat(args[2], 64); err != nil || pct <= 0 || pct > 100 {
			return parseErrf("bad top percent %q", args[2])
		}
		return nil
	},
	"stats": nil,
	"connect": func(args []string) error {
		if len(args) != 1 {
			return parseErrf("usage: connect URL")
		}
		return nil
	},
	"disconnect": func(args []string) error {
		if len(args) != 0 {
			return parseErrf("usage: disconnect")
		}
		return nil
	},
	"graphs": func(args []string) error {
		if len(args) != 0 {
			return parseErrf("usage: graphs")
		}
		return nil
	},
	"fetch": func(args []string) error {
		if len(args) != 1 {
			return parseErrf("usage: fetch NAME")
		}
		return nil
	},
	"sssp": func(args []string) error {
		if len(args) != 1 {
			return parseErrf("usage: sssp SOURCE [=> dist.txt]")
		}
		if src, err := strconv.Atoi(args[0]); err != nil || src < 0 {
			return parseErrf("bad source %q", args[0])
		}
		return nil
	},
}
