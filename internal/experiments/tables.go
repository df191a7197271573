package experiments

import (
	"graphct/internal/bc"
	"graphct/internal/cc"
	"graphct/internal/tweets"
)

// Table2Row pairs a week with the paper's article count and the model's.
type Table2Row struct {
	Week    int
	Paper   int
	Modeled int
}

// Table2 regenerates Table II: H1N1 article volume per week, paper values
// next to the synthetic crisis-attention model.
func Table2(cfg Config) []Table2Row {
	weeks, paper := tweets.PaperTableII()
	_, modeled := tweets.ModelTableII()
	rows := make([]Table2Row, len(weeks))
	w := cfg.out()
	fprintf(w, "Table II — H1N1 articles per week (paper vs volume model)\n")
	fprintf(w, "%-8s %12s %12s\n", "week", "paper", "model")
	for i := range weeks {
		rows[i] = Table2Row{Week: weeks[i], Paper: paper[i], Modeled: modeled[i]}
		fprintf(w, "%-8d %12d %12d\n", rows[i].Week, rows[i].Paper, rows[i].Modeled)
	}
	return rows
}

// Table3Row reports one tweet graph, full and largest weakly connected
// component.
type Table3Row struct {
	Name                   string
	Users                  int
	UsersLWCC              int
	UniqueInteractions     int64
	UniqueInteractionsLWCC int64
	TweetsWithResponses    int
	Tweets                 int
}

// Table3 regenerates Table III: user/interaction counts for the three
// corpora, full graph and LWCC.
func Table3(cfg Config) []Table3Row {
	var rows []Table3Row
	w := cfg.out()
	fprintf(w, "Table III — Twitter user-to-user graph characteristics\n")
	fprintf(w, "%-28s %10s %10s %14s %14s %12s\n",
		"data set", "users", "LWCC", "interactions", "LWCC", "with-resp")
	for _, c := range cfg.corpora() {
		ug := harvest(c.Opts)
		lwcc, _ := cc.Largest(ug.Graph)
		row := Table3Row{
			Name:                   c.Name,
			Users:                  ug.Stats.Users,
			UsersLWCC:              lwcc.NumVertices(),
			UniqueInteractions:     ug.Stats.UniqueInteractions,
			UniqueInteractionsLWCC: lwcc.NumArcs(),
			TweetsWithResponses:    ug.Stats.TweetsWithMentions,
			Tweets:                 ug.Stats.Tweets,
		}
		rows = append(rows, row)
		fprintf(w, "%-28s %10d %10d %14d %14d %12d\n",
			row.Name, row.Users, row.UsersLWCC, row.UniqueInteractions,
			row.UniqueInteractionsLWCC, row.TweetsWithResponses)
	}
	return rows
}

// Table4Row is one ranked actor.
type Table4Row struct {
	Rank   int
	Handle string
	Score  float64
}

// Table4Result holds the per-corpus rankings.
type Table4Result struct {
	H1N1     []Table4Row
	AtlFlood []Table4Row
}

// Table4 regenerates Table IV: the top 15 users by betweenness centrality
// in the H1N1 and #atlflood graphs. On the synthetic corpora the hub
// (media/government analogue) handles should dominate, as they do in the
// paper.
func Table4(cfg Config) Table4Result {
	w := cfg.out()
	fprintf(w, "Table IV — top 15 users by betweenness centrality\n")
	rank := func(c corpus) []Table4Row {
		ug := harvest(c.Opts)
		res := bc.Exact(ug.Graph)
		top := res.TopK(15)
		rows := make([]Table4Row, 0, len(top))
		fprintf(w, "%s\n", c.Name)
		for i, v := range top {
			row := Table4Row{Rank: i + 1, Handle: "@" + ug.Names[v], Score: res.Scores[v]}
			rows = append(rows, row)
			fprintf(w, "%2d. %-28s %14.1f\n", row.Rank, row.Handle, row.Score)
		}
		return rows
	}
	cs := cfg.corpora()
	return Table4Result{H1N1: rank(cs[0]), AtlFlood: rank(cs[1])}
}
