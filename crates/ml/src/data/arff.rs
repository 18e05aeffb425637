//! ARFF (Attribute-Relation File Format) reading and writing — WEKA's
//! native dataset format; the MOA airlines data ships as ARFF.

use super::attribute::{Attribute, AttributeKind};
use super::dataset::Dataset;
use crate::MlError;

/// Parse an ARFF document.
pub fn parse(text: &str) -> Result<Dataset, MlError> {
    let mut relation = String::from("unnamed");
    let mut attributes: Vec<Attribute> = Vec::new();
    let mut in_data = false;
    let mut instances: Vec<Vec<f64>> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        if !in_data {
            let lower = line.to_ascii_lowercase();
            if lower.starts_with("@relation") {
                relation = line[9..]
                    .trim()
                    .trim_matches('\'')
                    .trim_matches('"')
                    .to_string();
            } else if lower.starts_with("@attribute") {
                attributes.push(parse_attribute(line, lineno + 1)?);
            } else if lower.starts_with("@data") {
                if attributes.is_empty() {
                    return Err(MlError::Data("@data before any @attribute".into()));
                }
                in_data = true;
            } else {
                return Err(MlError::Data(format!(
                    "line {}: unknown directive",
                    lineno + 1
                )));
            }
        } else {
            let mut row = Vec::with_capacity(attributes.len());
            for (i, field) in line.split(',').enumerate() {
                let field = field.trim().trim_matches('\'').trim_matches('"');
                if i >= attributes.len() {
                    return Err(MlError::Data(format!(
                        "line {}: too many fields",
                        lineno + 1
                    )));
                }
                let v = if field == "?" {
                    f64::NAN
                } else {
                    match &attributes[i].kind {
                        AttributeKind::Numeric => field.parse::<f64>().map_err(|e| {
                            MlError::Data(format!(
                                "line {}: bad numeric `{field}`: {e}",
                                lineno + 1
                            ))
                        })?,
                        AttributeKind::Nominal(_) => {
                            attributes[i].index_of(field).ok_or_else(|| {
                                MlError::Data(format!(
                                    "line {}: unknown label `{field}` for {}",
                                    lineno + 1,
                                    attributes[i].name
                                ))
                            })? as f64
                        }
                    }
                };
                row.push(v);
            }
            if row.len() != attributes.len() {
                return Err(MlError::Data(format!(
                    "line {}: {} fields, expected {}",
                    lineno + 1,
                    row.len(),
                    attributes.len()
                )));
            }
            instances.push(row);
        }
    }
    let mut data = Dataset::new(&relation, attributes);
    data.instances = instances;
    Ok(data)
}

fn parse_attribute(line: &str, lineno: usize) -> Result<Attribute, MlError> {
    let rest = line[10..].trim();
    // Name may be quoted (contains spaces).
    let (name, tail) = if let Some(stripped) = rest.strip_prefix('\'') {
        let end = stripped
            .find('\'')
            .ok_or_else(|| MlError::Data(format!("line {lineno}: unterminated attribute name")))?;
        (stripped[..end].to_string(), stripped[end + 1..].trim())
    } else {
        let mut parts = rest.splitn(2, char::is_whitespace);
        let name = parts.next().unwrap_or("").to_string();
        (name, parts.next().unwrap_or("").trim())
    };
    if name.is_empty() {
        return Err(MlError::Data(format!(
            "line {lineno}: missing attribute name"
        )));
    }
    let kind = if tail.starts_with('{') {
        let inner = tail
            .trim_start_matches('{')
            .trim_end_matches('}')
            .split(',')
            .map(|s| s.trim().trim_matches('\'').trim_matches('"').to_string())
            .collect::<Vec<_>>();
        if inner.iter().any(|s| s.is_empty()) {
            return Err(MlError::Data(format!("line {lineno}: empty nominal label")));
        }
        AttributeKind::Nominal(inner)
    } else {
        match tail.to_ascii_lowercase().as_str() {
            "numeric" | "real" | "integer" => AttributeKind::Numeric,
            other => {
                return Err(MlError::Data(format!(
                    "line {lineno}: unsupported attribute type `{other}`"
                )))
            }
        }
    };
    Ok(Attribute { name, kind })
}

/// Serialize a dataset to ARFF.
pub fn write(d: &Dataset) -> String {
    let mut out = String::new();
    out.push_str(&format!("@relation '{}'\n\n", d.relation()));
    for a in d.attributes() {
        match &a.kind {
            AttributeKind::Numeric => out.push_str(&format!("@attribute '{}' numeric\n", a.name)),
            AttributeKind::Nominal(labels) => {
                out.push_str(&format!(
                    "@attribute '{}' {{{}}}\n",
                    a.name,
                    labels.join(",")
                ));
            }
        }
    }
    out.push_str("\n@data\n");
    for row in &d.instances {
        let fields: Vec<String> = row
            .iter()
            .zip(d.attributes())
            .map(|(v, a)| {
                if v.is_nan() {
                    "?".to_string()
                } else {
                    match &a.kind {
                        AttributeKind::Numeric => format!("{v}"),
                        AttributeKind::Nominal(_) => a.label(*v).unwrap_or("?").to_string(),
                    }
                }
            })
            .collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
% airlines sample
@relation 'airlines'
@attribute 'Airline' {AA,UA,DL}
@attribute 'Flight' numeric
@attribute 'Delay' {0,1}

@data
AA,120,0
UA,88,1
DL,?,0
";

    #[test]
    fn parses_relation_attributes_and_data() {
        let d = parse(SAMPLE).unwrap();
        assert_eq!(d.relation(), "airlines");
        assert_eq!(d.num_attributes(), 3);
        assert_eq!(d.len(), 3);
        assert_eq!(d.instances[0], vec![0.0, 120.0, 0.0]);
        assert_eq!(d.instances[1][0], 1.0);
        assert!(d.instances[2][1].is_nan());
        assert_eq!(d.class_index, 2);
    }

    #[test]
    fn roundtrip() {
        let d = parse(SAMPLE).unwrap();
        let text = write(&d);
        let d2 = parse(&text).unwrap();
        assert_eq!(d.relation(), d2.relation());
        assert_eq!(d.attributes(), d2.attributes());
        assert_eq!(d.len(), d2.len());
        assert_eq!(d.instances[0], d2.instances[0]);
        assert!(d2.instances[2][1].is_nan());
    }

    #[test]
    fn errors_on_malformed_input() {
        assert!(parse("@data\n1,2").is_err());
        assert!(parse("@relation r\n@attribute a wibble\n@data\n").is_err());
        assert!(parse("@relation r\n@attribute a numeric\n@data\nxyz").is_err());
        assert!(parse("@relation r\n@attribute a {x,y}\n@data\nz").is_err());
        assert!(parse("@relation r\n@attribute a numeric\n@data\n1,2,3").is_err());
    }

    #[test]
    fn quoted_names_with_spaces() {
        let d = parse(
            "@relation r\n@attribute 'Airport From' {A,B}\n@attribute 'Delay' {0,1}\n@data\nA,1\n",
        )
        .unwrap();
        assert_eq!(d.attributes()[0].name, "Airport From");
    }
}
