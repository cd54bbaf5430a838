-- A LOW logical detector over frames no view covers: Algorithm 2
-- evaluates the cheapest qualifying model, YoloTiny, which is the model
-- the permanent fault regime breaks, so the query must degrade.
LOAD VIDEO 'medium-ua-detrac' INTO video;
SELECT id, COUNT(*) AS n FROM video CROSS APPLY ObjectDetector(frame) ACCURACY 'LOW'
  WHERE id < 6 GROUP BY id;
