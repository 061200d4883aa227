"""tests/parity.py: the records run at tiny sizes and repeat exactly."""

import json

from parity import AUGMENTATIONS, PLAN_FIELDS, SEEDS, SIZES, records


def test_tiny_records_repeat():
    first = records(SIZES["tiny"])
    assert len(first["train"]) == len(SEEDS) * sum(map(len, AUGMENTATIONS.values()))
    assert set(first["evaluate"]) == {str(seed) for seed in SEEDS}
    assert set(first["score"]) == {"class_0", "class_1"}
    assert first["heatmap"].keys() == {"exit", "heatmap_cs.csv", "heatmap_ds.csv",
                                       "summary.json"}
    assert first["heatmap"]["exit"] == 0
    assert first["eval"].keys() == {"exit", "metrics.json"}
    assert first["train_descriptions"].keys() == {"exit", "checkpoint.ckpt", "history.csv",
                                                  "metrics.json"}
    assert first["ablate"].keys() == {"exit", "ablation.csv", "ablation.json"}
    solve_files = {"exit", "coupling.csv", "coupling.emb1", "u.csv", "v.csv", "summary.json"}
    assert first["solve"]["default"].keys() == first["solve"]["pinned"].keys() == solve_files
    assert first["compare"].keys() == {"exit", "ot_coupling.csv", "uot_coupling.csv",
                                       "summary.json"}
    assert {first[key]["exit"]
            for key in ("eval", "train_descriptions", "ablate", "compare")} == {0}
    assert first["solve"]["default"]["exit"] == first["solve"]["pinned"]["exit"] == 0
    assert set(first["transport"]) == {
        "4x16 relaxed", "4x49 relaxed", "4x196 relaxed", "4x16 pinned", "4x49 pinned",
        "4x16 relaxed capped", "small lambda rho=inf", "small lambda rho=0.05",
        "capped pinned", "capped unnormalised pinned", "capped weak", "capped relaxed",
        "finishing apart"}
    assert all(record.keys() == set(PLAN_FIELDS) for record in first["transport"].values())
    # NaN per-class accuracies compare equal as text only
    assert (json.dumps(records(SIZES["tiny"]), sort_keys=True)
            == json.dumps(first, sort_keys=True))
