package experiments

import "fmt"

// Names lists the runnable experiments: the paper's tables and figures in
// order, then the future-work extensions (sampling strategies, k-BC
// robustness, diameter-estimator quality).
var Names = []string{
	"table2", "table3", "table4",
	"fig2", "fig3", "fig4", "fig5", "fig6",
	"sampling", "robustness", "diameter", "temporal", "confidence",
}

// Run executes one experiment by name.
func Run(name string, cfg Config) error {
	switch name {
	case "table2":
		Table2(cfg)
	case "table3":
		Table3(cfg)
	case "table4":
		Table4(cfg)
	case "fig2":
		Fig2(cfg)
	case "fig3":
		Fig3(cfg)
	case "fig4":
		Fig4(cfg)
	case "fig5":
		Fig5(cfg)
	case "fig6":
		Fig6(cfg)
	case "sampling":
		SamplingStrategies(cfg)
	case "robustness":
		KBCRobustness(cfg)
	case "diameter":
		DiameterQuality(cfg)
	case "temporal":
		Temporal(cfg)
	case "confidence":
		Confidence(cfg)
	default:
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names)
	}
	return nil
}
