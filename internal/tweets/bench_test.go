package tweets

import "testing"

// Sinks for BenchmarkIngest's results, so the calls cannot be dropped.
var (
	benchClean []Tweet
	benchGraph *UserGraph
)

// BenchmarkIngest times the two text stages of the paper's tweet pipeline
// on the benchmark's batch_tweets_sept input (Sept1Corpus(0.1, 502),
// 230,000 tweets): filter is FilterSpam over the raw stream, build is
// Build over the clean stream it returns. tweets/s is the stream each
// stage consumes per second.
func BenchmarkIngest(b *testing.B) {
	raw := Generate(Sept1Corpus(0.1, 502))
	clean := FilterSpam(raw, 0)
	b.Run("filter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchClean = FilterSpam(raw, 0)
		}
		b.ReportMetric(float64(b.N)*float64(len(raw))/b.Elapsed().Seconds(), "tweets/s")
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchGraph = Build(clean)
		}
		b.ReportMetric(float64(b.N)*float64(len(clean))/b.Elapsed().Seconds(), "tweets/s")
	})
}
