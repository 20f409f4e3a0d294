package exper

// Table2 reproduces paper Table II ("graph datasets used in our
// experiments") for the synthetic analogs: nodes, edges and exact triangle
// counts, plus η and η/τ, which Figure 1 depends on.
func Table2(p Profile) (*Table, error) {
	t := &Table{
		ID:    "table2",
		Title: "datasets (synthetic analogs of paper Table II)",
		Columns: []string{
			"dataset", "stands-for", "nodes", "edges", "triangles",
			"eta", "eta/tau", "max-deg",
		},
		Notes: []string{
			"paper datasets are not redistributable; analogs match the η/τ spread, not absolute sizes (go doc rept/internal/exper)",
		},
	}
	for _, name := range p.Datasets {
		d, err := Load(name, p.Scale)
		if err != nil {
			return nil, err
		}
		sum := summarize(d)
		ratio := 0.0
		if d.Exact.Tau > 0 {
			ratio = d.Eta() / d.Tau()
		}
		t.Rows = append(t.Rows, []string{
			d.Spec.Name, d.Spec.PaperRef,
			fmtInt(d.Exact.Nodes), fmtInt(d.Exact.Edges),
			fmtInt(int(d.Exact.Tau)), fmtInt(int(d.Exact.Eta)),
			fmtFloat(ratio), fmtInt(sum.MaxDegree),
		})
	}
	return t, nil
}
