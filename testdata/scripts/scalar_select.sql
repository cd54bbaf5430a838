-- Computed select items: an inexpensive scalar UDF left in the SELECT
-- list (its column takes the UDF's declared output kind), arithmetic
-- and a comparison over it, and MIN/MAX of non-numeric columns (they
-- take their argument's kind).
LOAD VIDEO 'medium-ua-detrac' INTO video;
SELECT id, Area(bbox) FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 2;
SELECT id, label, Area(bbox) * 100 AS pct, id + 1 AS next, Area(bbox) > 0.1 AS big
  FROM video CROSS APPLY FasterRCNNResnet50(frame)
  WHERE id < 3 AND label = 'car' AND Area(bbox) > 0.02;
SELECT MIN(label) AS first_label, MAX(bbox) AS last_box, MAX(id) AS last_id
  FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 4;
SELECT id, MAX(label) AS top, MIN(Area(bbox)) AS smallest
  FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id < 4 GROUP BY id;
