"""tests/parity.py: the records run at tiny sizes and repeat exactly."""

import json

from parity import AUGMENTATIONS, SEEDS, SIZES, records


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
    # NaN per-class accuracies compare equal as text only
    assert (json.dumps(records(SIZES["tiny"]), sort_keys=True)
            == json.dumps(first, sort_keys=True))
