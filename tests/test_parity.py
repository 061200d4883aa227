"""tests/parity.py: the records run at tiny sizes and repeat exactly."""

import json

from parity import AUGMENTATIONS, SEEDS, SIZES, VARIANTS, records


def test_tiny_records_repeat():
    first = records(SIZES["tiny"])
    assert len(first["train"]) == len(SEEDS) * len(AUGMENTATIONS) * len(VARIANTS)
    assert set(first["evaluate"]) == {str(seed) for seed in SEEDS}
    assert set(first["score"]) == {"class_0", "class_1"}
    assert first["heatmap"].keys() == {"exit", "heatmap_cs.csv", "heatmap_ds.csv",
                                       "summary.json"}
    assert first["heatmap"]["exit"] == 0
    # NaN per-class accuracies compare equal as text only
    assert (json.dumps(records(SIZES["tiny"]), sort_keys=True)
            == json.dumps(first, sort_keys=True))
