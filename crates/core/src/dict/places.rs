//! Countries and cities.
//!
//! Persons are assigned a home city (and thereby country) with probability
//! proportional to a population weight; the country then drives the
//! correlated attributes of Table 1 (names, university, company, languages,
//! interests). City coordinates feed the Z-order component of the
//! study-location correlation dimension (§2.3: "the Z-order location of the
//! university's city (bits 31-24)").

/// Index of a country in [`Places`].
pub type CountryIdx = usize;
/// Index of a city in [`Places`].
pub type CityIdx = usize;

/// A country: name, relative population weight, spoken languages.
#[derive(Debug)]
pub struct Country {
    /// Country name.
    pub name: &'static str,
    /// Relative population weight used when sampling person locations.
    pub weight: f64,
    /// Languages spoken (person.languages correlation, Table 1).
    pub languages: &'static [&'static str],
    /// Range of this country's cities in `Places::cities`.
    pub cities: std::ops::Range<CityIdx>,
}

/// A city with approximate coordinates.
#[derive(Debug)]
pub struct City {
    /// City name.
    pub name: &'static str,
    /// Owning country.
    pub country: CountryIdx,
    /// Approximate latitude, degrees.
    pub lat: f64,
    /// Approximate longitude, degrees.
    pub lon: f64,
}

/// The place dictionary.
#[derive(Debug)]
pub struct Places {
    countries: Vec<Country>,
    cities: Vec<City>,
    /// Cumulative population weights for weighted country sampling.
    cum_weights: Vec<f64>,
}

/// Raw table: (country, weight, languages, [(city, lat, lon); ...]).
type Raw = (&'static str, f64, &'static [&'static str], &'static [(&'static str, f64, f64)]);

#[rustfmt::skip]
const RAW: &[Raw] = &[
    ("China", 19.0, &["zh"], &[
        ("Beijing", 39.9, 116.4), ("Shanghai", 31.2, 121.5), ("Guangzhou", 23.1, 113.3),
        ("Chengdu", 30.6, 104.1), ("Wuhan", 30.6, 114.3)]),
    ("India", 18.0, &["hi", "en"], &[
        ("Mumbai", 19.1, 72.9), ("Delhi", 28.7, 77.1), ("Bangalore", 13.0, 77.6),
        ("Chennai", 13.1, 80.3)]),
    ("United States", 4.4, &["en"], &[
        ("New York", 40.7, -74.0), ("Los Angeles", 34.1, -118.2), ("Chicago", 41.9, -87.6),
        ("Houston", 29.8, -95.4), ("Seattle", 47.6, -122.3)]),
    ("Indonesia", 3.6, &["id"], &[
        ("Jakarta", -6.2, 106.8), ("Surabaya", -7.3, 112.7), ("Bandung", -6.9, 107.6)]),
    ("Brazil", 2.8, &["pt"], &[
        ("Sao Paulo", -23.6, -46.6), ("Rio de Janeiro", -22.9, -43.2), ("Brasilia", -15.8, -47.9)]),
    ("Pakistan", 2.6, &["ur", "en"], &[
        ("Karachi", 24.9, 67.0), ("Lahore", 31.5, 74.3), ("Islamabad", 33.7, 73.0)]),
    ("Russia", 2.0, &["ru"], &[
        ("Moscow", 55.8, 37.6), ("Saint Petersburg", 59.9, 30.3), ("Novosibirsk", 55.0, 82.9)]),
    ("Japan", 1.7, &["ja"], &[
        ("Tokyo", 35.7, 139.7), ("Osaka", 34.7, 135.5), ("Nagoya", 35.2, 136.9)]),
    ("Germany", 1.1, &["de"], &[
        ("Berlin", 52.5, 13.4), ("Munich", 48.1, 11.6), ("Hamburg", 53.6, 10.0),
        ("Leipzig", 51.3, 12.4)]),
    ("Nigeria", 2.3, &["en"], &[
        ("Lagos", 6.5, 3.4), ("Abuja", 9.1, 7.4), ("Kano", 12.0, 8.5)]),
    ("Mexico", 1.7, &["es"], &[
        ("Mexico City", 19.4, -99.1), ("Guadalajara", 20.7, -103.3), ("Monterrey", 25.7, -100.3)]),
    ("Philippines", 1.4, &["tl", "en"], &[
        ("Manila", 14.6, 121.0), ("Cebu", 10.3, 123.9), ("Davao", 7.1, 125.6)]),
    ("Vietnam", 1.3, &["vi"], &[
        ("Hanoi", 21.0, 105.8), ("Ho Chi Minh City", 10.8, 106.6), ("Da Nang", 16.1, 108.2)]),
    ("United Kingdom", 0.9, &["en"], &[
        ("London", 51.5, -0.1), ("Manchester", 53.5, -2.2), ("Edinburgh", 55.9, -3.2)]),
    ("France", 0.9, &["fr"], &[
        ("Paris", 48.9, 2.4), ("Lyon", 45.8, 4.8), ("Marseille", 43.3, 5.4)]),
    ("Italy", 0.8, &["it"], &[
        ("Rome", 41.9, 12.5), ("Milan", 45.5, 9.2), ("Naples", 40.9, 14.3)]),
    ("Spain", 0.6, &["es"], &[
        ("Madrid", 40.4, -3.7), ("Barcelona", 41.4, 2.2), ("Valencia", 39.5, -0.4)]),
    ("Netherlands", 0.24, &["nl", "en"], &[
        ("Amsterdam", 52.4, 4.9), ("Rotterdam", 51.9, 4.5), ("Utrecht", 52.1, 5.1)]),
    ("Sweden", 0.14, &["sv", "en"], &[
        ("Stockholm", 59.3, 18.1), ("Gothenburg", 57.7, 12.0), ("Malmo", 55.6, 13.0)]),
    ("Poland", 0.5, &["pl"], &[
        ("Warsaw", 52.2, 21.0), ("Krakow", 50.1, 19.9), ("Wroclaw", 51.1, 17.0)]),
    ("Turkey", 1.1, &["tr"], &[
        ("Istanbul", 41.0, 29.0), ("Ankara", 39.9, 32.9), ("Izmir", 38.4, 27.1)]),
    ("Egypt", 1.3, &["ar"], &[
        ("Cairo", 30.0, 31.2), ("Alexandria", 31.2, 29.9), ("Giza", 30.0, 31.2)]),
    ("Canada", 0.5, &["en", "fr"], &[
        ("Toronto", 43.7, -79.4), ("Vancouver", 49.3, -123.1), ("Montreal", 45.5, -73.6)]),
    ("Australia", 0.35, &["en"], &[
        ("Sydney", -33.9, 151.2), ("Melbourne", -37.8, 145.0), ("Brisbane", -27.5, 153.0)]),
    ("Argentina", 0.6, &["es"], &[
        ("Buenos Aires", -34.6, -58.4), ("Cordoba", -31.4, -64.2), ("Rosario", -33.0, -60.7)]),
];

impl Places {
    /// Estimated resident heap bytes (country/city vectors; name strings
    /// are static).
    pub fn heap_bytes(&self) -> usize {
        self.countries.len() * std::mem::size_of::<Country>()
            + self.cities.len() * std::mem::size_of::<City>()
            + self.cum_weights.len() * std::mem::size_of::<f64>()
    }

    /// Build the place dictionary from the embedded table.
    pub fn build() -> Places {
        let mut countries = Vec::with_capacity(RAW.len());
        let mut cities = Vec::new();
        let mut cum_weights = Vec::with_capacity(RAW.len());
        let mut total = 0.0;
        for (ci, (name, weight, languages, raw_cities)) in RAW.iter().enumerate() {
            let start = cities.len();
            for (cname, lat, lon) in raw_cities.iter() {
                cities.push(City { name: cname, country: ci, lat: *lat, lon: *lon });
            }
            total += weight;
            cum_weights.push(total);
            countries.push(Country {
                name,
                weight: *weight,
                languages,
                cities: start..cities.len(),
            });
        }
        Places { countries, cities, cum_weights }
    }

    /// Number of countries.
    pub fn country_count(&self) -> usize {
        self.countries.len()
    }

    /// Country by index.
    pub fn country(&self, idx: CountryIdx) -> &Country {
        &self.countries[idx]
    }

    /// City by index.
    pub fn city(&self, idx: CityIdx) -> &City {
        &self.cities[idx]
    }

    /// All countries.
    pub fn countries(&self) -> &[Country] {
        &self.countries
    }

    /// Look up a country index by name (used by experiment harnesses).
    pub fn country_by_name(&self, name: &str) -> Option<CountryIdx> {
        self.countries.iter().position(|c| c.name == name)
    }

    /// Sample a country index weighted by population.
    pub fn sample_country(&self, rng: &mut crate::rng::Rng) -> CountryIdx {
        rng.weighted_index(&self.cum_weights)
    }

    /// Sample a city uniformly within a country.
    pub fn sample_city(&self, rng: &mut crate::rng::Rng, country: CountryIdx) -> CityIdx {
        let range = &self.countries[country].cities;
        range.start + rng.index(range.len())
    }

    /// 8-bit Z-order (Morton) code of a city's coordinates: interleaves the
    /// top 4 bits of quantized latitude and longitude. Occupies bits 31-24 of
    /// the study-location correlation key, exactly the bit budget the paper
    /// allocates.
    pub fn city_zorder(&self, idx: CityIdx) -> u8 {
        let c = &self.cities[idx];
        let qlat = (((c.lat + 90.0) / 180.0) * 15.0).round() as u8; // 4 bits
        let qlon = (((c.lon + 180.0) / 360.0) * 15.0).round() as u8; // 4 bits
        let mut z = 0u8;
        for bit in 0..4 {
            z |= ((qlon >> bit) & 1) << (2 * bit);
            z |= ((qlat >> bit) & 1) << (2 * bit + 1);
        }
        z
    }
}

/// Resolve a language code back to its `&'static str` (WAL recovery).
pub fn intern_language(lang: &str) -> Option<&'static str> {
    for (_, _, languages, _) in RAW {
        for &l in *languages {
            if l == lang {
                return Some(l);
            }
        }
    }
    (lang == "en").then_some("en")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Stream};

    #[test]
    fn table_is_well_formed() {
        let p = Places::build();
        assert!(p.country_count() >= 20);
        for (ci, c) in p.countries().iter().enumerate() {
            assert!(!c.cities.is_empty(), "{} has no cities", c.name);
            assert!(!c.languages.is_empty());
            for city_idx in c.cities.clone() {
                assert_eq!(p.city(city_idx).country, ci);
            }
        }
    }

    #[test]
    fn population_weighting_prefers_large_countries() {
        let p = Places::build();
        let mut rng = Rng::for_entity(1, Stream::PersonAttrs, 0);
        let mut counts = vec![0usize; p.country_count()];
        for _ in 0..50_000 {
            counts[p.sample_country(&mut rng)] += 1;
        }
        let china = p.country_by_name("China").unwrap();
        let sweden = p.country_by_name("Sweden").unwrap();
        assert!(counts[china] > 20 * counts[sweden]);
        // Every country appears.
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn zorder_groups_nearby_cities() {
        let p = Places::build();
        // Cities in the same country should usually share high Z-order bits
        // more than antipodal cities do. Spot-check: Berlin vs Munich closer
        // in Z than Berlin vs Sydney.
        let berlin = p.countries()[p.country_by_name("Germany").unwrap()].cities.start;
        let munich = berlin + 1;
        let sydney = p.countries()[p.country_by_name("Australia").unwrap()].cities.start;
        let zb = p.city_zorder(berlin) as i32;
        let zm = p.city_zorder(munich) as i32;
        let zs = p.city_zorder(sydney) as i32;
        assert!((zb - zm).abs() < (zb - zs).abs());
    }

    #[test]
    fn intern_language_covers_dictionary() {
        let p = Places::build();
        for c in p.countries() {
            for &l in c.languages {
                assert_eq!(intern_language(l), Some(l));
            }
        }
        assert_eq!(intern_language("xx"), None);
    }

    #[test]
    fn city_sampling_stays_in_country() {
        let p = Places::build();
        let mut rng = Rng::for_entity(2, Stream::PersonAttrs, 0);
        for country in 0..p.country_count() {
            for _ in 0..20 {
                let city = p.sample_city(&mut rng, country);
                assert_eq!(p.city(city).country, country);
            }
        }
    }
}
