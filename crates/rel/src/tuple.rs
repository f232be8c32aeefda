//! Tuples and their binary encoding into fixed-size records.
//!
//! Layout: per value a 1-byte tag, then
//! * `Int` — 8 bytes little-endian,
//! * `Float` — 8 bytes little-endian,
//! * `Str` — u16 length + UTF-8 bytes,
//! * `Spatial` — u16 length + the `sj_geom::codec` encoding.
//!
//! Records are zero-padded to the table's fixed record size (the model's
//! tuple size `v`); a leading `u16` stores the encoded length so padding
//! is unambiguous.

use sj_geom::{codec, CodecError, Geometry};

use crate::error::{DbError, Result};
use crate::schema::Schema;
use crate::value::Value;

/// A row: one value per schema column.
pub type Tuple = Vec<Value>;

const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_SPATIAL: u8 = 4;

/// Exact byte length [`encode_tuple`] needs for `row`, header included —
/// lets mutation paths screen oversized tuples with a typed outcome
/// instead of tripping the encoder's panic.
pub fn encoded_tuple_len(row: &Tuple) -> usize {
    2 + row
        .iter()
        .map(|v| match v {
            Value::Int(_) | Value::Float(_) => 9,
            Value::Str(s) => 3 + s.len(),
            Value::Spatial(g) => 3 + codec::encoded_len(g),
        })
        .sum::<usize>()
}

/// Encodes a tuple into exactly `record_size` bytes.
///
/// # Panics
///
/// Panics if the encoding exceeds `record_size` (choose a larger tuple
/// size `v` for the table) or a string/geometry exceeds `u16::MAX` bytes.
/// `Database::apply` screens both with [`encoded_tuple_len`] against a
/// record that fits one page.
pub fn encode_tuple(row: &Tuple, record_size: usize) -> Vec<u8> {
    let total = encoded_tuple_len(row);
    assert!(
        total <= record_size && total <= usize::from(u16::MAX),
        "tuple needs {total} bytes but the record size is {record_size}"
    );
    let mut out = Vec::with_capacity(record_size);
    out.extend_from_slice(&((total - 2) as u16).to_le_bytes());
    for v in row {
        match v {
            Value::Int(x) => {
                out.push(TAG_INT);
                out.extend_from_slice(&x.to_le_bytes());
            }
            Value::Float(x) => {
                out.push(TAG_FLOAT);
                out.extend_from_slice(&x.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                out.extend_from_slice(&(s.len() as u16).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Spatial(g) => {
                out.push(TAG_SPATIAL);
                let enc = codec::encode_record(0, g, codec::encoded_len(g));
                out.extend_from_slice(&(enc.len() as u16).to_le_bytes());
                out.extend_from_slice(&enc);
            }
        }
    }
    out.resize(record_size, 0);
    out
}

/// A `codec` frame decoder: the page-read or the untrusted one.
type FrameDecoder = fn(&[u8]) -> std::result::Result<(u64, Geometry), CodecError>;

/// Decodes a record produced by [`encode_tuple`] into a row of `schema`,
/// reading each spatial value's checksummed frame with `frame`:
/// [`codec::try_decode_record`] for a row on this process's own pages,
/// whose encoder wrote a validated geometry, or
/// [`codec::try_decode_untrusted`] for bytes from outside, which must also
/// pass the polygon ring check. A record that does not decode — a length
/// prefix past the record, an unknown tag, a string that is not UTF-8, a
/// geometry frame that is truncated or fails its checksum, a value of the
/// wrong type — is a [`DbError::Corrupt`], never a panic.
pub fn decode_tuple(bytes: &[u8], schema: &Schema, frame: FrameDecoder) -> Result<Tuple> {
    let mut rec = bytes;
    let body_len = u16::from_le_bytes(take_array(&mut rec)?);
    let mut cur = take(&mut rec, usize::from(body_len))?;
    let mut out = Vec::with_capacity(schema.arity());
    for _ in schema.columns() {
        let v = match take_array::<1>(&mut cur)?[0] {
            TAG_INT => Value::Int(i64::from_le_bytes(take_array(&mut cur)?)),
            TAG_FLOAT => Value::Float(f64::from_le_bytes(take_array(&mut cur)?)),
            TAG_STR => {
                let len = u16::from_le_bytes(take_array(&mut cur)?);
                let bytes = take(&mut cur, usize::from(len))?.to_vec();
                let s = String::from_utf8(bytes);
                Value::Str(s.map_err(|_| DbError::Corrupt("a string is not UTF-8".into()))?)
            }
            TAG_SPATIAL => {
                let len = u16::from_le_bytes(take_array(&mut cur)?);
                let decoded = frame(take(&mut cur, usize::from(len))?);
                Value::Spatial(decoded.map_err(|e| DbError::Corrupt(e.to_string()))?.1)
            }
            tag => return Err(DbError::Corrupt(format!("unknown value tag {tag}"))),
        };
        out.push(v);
    }
    schema
        .check_row(&out)
        .map_err(|e| DbError::Corrupt(e.to_string()))?;
    Ok(out)
}

/// The next `n` bytes of `cur`, or [`DbError::Corrupt`] if fewer are left.
fn take<'a>(cur: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if cur.len() < n {
        let why = format!("{n} bytes wanted, {} left", cur.len());
        return Err(DbError::Corrupt(why));
    }
    let (head, tail) = cur.split_at(n);
    *cur = tail;
    Ok(head)
}

fn take_array<const N: usize>(cur: &mut &[u8]) -> Result<[u8; N]> {
    let mut out = [0; N];
    out.copy_from_slice(take(cur, N)?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::ValueType;
    use sj_geom::{Geometry, Point, Polygon, Rect};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", ValueType::Int),
            Column::new("price", ValueType::Float),
            Column::new("name", ValueType::Str),
            Column::new("shape", ValueType::Spatial),
        ])
    }

    fn sample() -> Tuple {
        vec![
            Value::Int(-42),
            Value::Float(3.5),
            Value::Str("Lake Tahoe".into()),
            Value::Spatial(Geometry::Polygon(
                Polygon::from_rect(&Rect::from_bounds(0.0, 0.0, 2.0, 3.0)).unwrap(),
            )),
        ]
    }

    #[test]
    fn roundtrip() {
        let rec = encode_tuple(&sample(), 300);
        assert_eq!(rec.len(), 300);
        assert_eq!(
            decode_tuple(&rec, &schema(), codec::try_decode_untrusted),
            Ok(sample())
        );
    }

    #[test]
    fn empty_string_and_point() {
        let s = Schema::new(vec![
            Column::new("s", ValueType::Str),
            Column::new("p", ValueType::Spatial),
        ]);
        let row = vec![
            Value::Str(String::new()),
            Value::Spatial(Geometry::Point(Point::new(-1.0, 1.0))),
        ];
        let rec = encode_tuple(&row, 128);
        assert_eq!(decode_tuple(&rec, &s, codec::try_decode_untrusted), Ok(row));
    }

    #[test]
    #[should_panic(expected = "record size")]
    fn oversized_tuple_rejected() {
        let _ = encode_tuple(&sample(), 32);
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let s = Schema::new(vec![Column::new("s", ValueType::Str)]);
        let row = vec![Value::Str("Grüße, 測試 🚀".into())];
        let rec = encode_tuple(&row, 64);
        assert_eq!(decode_tuple(&rec, &s, codec::try_decode_untrusted), Ok(row));
    }

    /// A damaged stored row is a typed error, whatever part is damaged.
    #[test]
    fn malformed_records_are_corrupt_not_panics() {
        let rec = encode_tuple(&sample(), 300);
        // Offsets in `sample()`'s record: a 2-byte prefix, Int and Float
        // (9 bytes each), then the string's tag at 20, its length at 21
        // and its bytes at 23, then the geometry's tag at 33 and its
        // frame length at 34.
        let damaged = |at: usize, bytes: &[u8]| {
            let mut r = rec.clone();
            r[at..at + bytes.len()].copy_from_slice(bytes);
            decode_tuple(&r, &schema(), codec::try_decode_untrusted)
        };
        let cases = [
            ("prefix past the record", damaged(0, &400u16.to_le_bytes())),
            ("unknown tag", damaged(2, &[9])),
            ("invalid UTF-8", damaged(23, &[0xFF])),
            (
                "truncated geometry frame",
                damaged(34, &10u16.to_le_bytes()),
            ),
            ("wrong value type", damaged(2, &[TAG_FLOAT])),
        ];
        for (shape, got) in cases {
            assert!(matches!(got, Err(DbError::Corrupt(_))), "{shape}: {got:?}");
        }
        assert!(
            decode_tuple(&rec[..1], &schema(), codec::try_decode_untrusted).is_err(),
            "no room for a prefix"
        );
    }
}
