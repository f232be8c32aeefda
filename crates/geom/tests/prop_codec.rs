//! Codec fuzzing: every geometry round-trips through the binary record
//! format at any sufficient record size, and the frame is the same
//! `encoded_len` bytes whatever that size.

use proptest::prelude::*;
use sj_geom::{codec, Geometry, Point, Polygon, Polyline, Rect};

fn arb_geometry() -> impl Strategy<Value = Geometry> {
    let coord = -1e6..1e6f64;
    prop_oneof![
        (coord.clone(), coord.clone()).prop_map(|(x, y)| Geometry::Point(Point::new(x, y))),
        (coord.clone(), coord.clone(), 0.001..1e3f64, 0.001..1e3f64)
            .prop_map(|(x, y, w, h)| Geometry::Rect(Rect::from_bounds(x, y, x + w, y + h))),
        (coord.clone(), coord.clone(), 0.01..1e3f64, 3usize..12)
            .prop_map(|(x, y, r, n)| Geometry::Polygon(Polygon::regular(Point::new(x, y), r, n))),
        (
            coord.clone(),
            coord,
            prop::collection::vec((-100.0..100.0f64, -100.0..100.0f64), 1..10)
        )
            .prop_map(|(x, y, deltas)| {
                let mut pts = vec![Point::new(x, y)];
                let mut cur = Point::new(x, y);
                for (dx, dy) in deltas {
                    cur = Point::new(cur.x + dx, cur.y + dy);
                    pts.push(cur);
                }
                Geometry::Polyline(Polyline::new(pts).expect("≥2 points"))
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn roundtrip_at_tight_and_padded_sizes(
        g in arb_geometry(),
        id in any::<u64>(),
        extra in 0usize..300,
    ) {
        let tight = codec::encoded_len(&g);
        let record = codec::encode_record(id, &g, tight + extra);
        prop_assert_eq!(record.len(), tight);
        prop_assert_eq!(&record, &codec::encode_record(id, &g, tight));
        let (id2, g2) = codec::try_decode_record(&record).unwrap();
        prop_assert_eq!(id, id2);
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn encoded_len_is_exact(g in arb_geometry()) {
        // Encoding at exactly encoded_len succeeds; one byte less panics.
        let tight = codec::encoded_len(&g);
        let _ = codec::encode_record(1, &g, tight);
        let r = std::panic::catch_unwind(|| codec::encode_record(1, &g, tight - 1));
        prop_assert!(r.is_err(), "undersized record must be rejected");
    }
}
