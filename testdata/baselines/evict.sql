-- BENCH_evict.json's workload, run on the jackson video under each
-- storage budget: several detector views of comparable size, so the
-- largest single view is well below the total footprint and the budget
-- levels between "admits everything" and "admits one view" differ. Every
-- model is pinned: an unconstrained logical UDF may be served by
-- whichever detector's view survives, which would change its answers.
SELECT id, label FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 160 AND label = 'car';
SELECT id FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 150;
SELECT id FROM video CROSS APPLY YoloTiny(frame) WHERE id < 170;
SELECT id FROM video CROSS APPLY FasterRCNNResnet101(frame) WHERE id < 140;
SELECT id FROM video CROSS APPLY YoloTiny(frame) WHERE id >= 40 AND id < 200;
