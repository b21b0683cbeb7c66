//! Model test of the dependency services: streams that run one operation at
//! a time, stepped in random cross-stream interleavings and checked after
//! every step against Fig. 7 computed by brute force from explicit IT/CT
//! sets.

use proptest::collection::vec;
use proptest::prelude::*;
use snb_core::time::SimTime;
use snb_driver::dependency::{Gds, STREAM_END};

#[derive(Debug, Clone, Copy)]
enum Step {
    Initiate(i64),
    Complete(i64),
    Finish,
}

/// One stream's life as its partition thread drives it: every due time
/// initiated then completed, in order, then `finish`. A stream that stops
/// early (the driver's error path) finishes after its first `ran`
/// operations, with the next one initiated but never completed when
/// `in_flight`.
fn script(dues: &[i64], stop: Option<(usize, bool)>) -> Vec<Step> {
    let (ran, in_flight) = stop.unwrap_or((dues.len(), false));
    let mut steps: Vec<Step> =
        dues[..ran].iter().flat_map(|&t| [Step::Initiate(t), Step::Complete(t)]).collect();
    if in_flight {
        steps.push(Step::Initiate(dues[ran]));
    }
    steps.push(Step::Finish);
    steps
}

/// A stream's due times (sorted, with repeats) and where it stops early.
fn stream_strategy() -> impl Strategy<Value = (Vec<i64>, Option<(usize, bool)>)> {
    (vec(1i64..40, 0..12), 0u8..3, 0usize..12, any::<bool>()).prop_map(
        |(mut dues, stops, at, in_flight)| {
            dues.sort_unstable();
            let ran = at.min(dues.len());
            let stop = (stops == 0).then_some((ran, in_flight && ran < dues.len()));
            (dues, stop)
        },
    )
}

/// Fig. 7 for one stream, over explicit multisets.
#[derive(Debug, Default)]
struct Model {
    it: Vec<i64>,
    ct: Vec<i64>,
    last_added: i64,
    finished: bool,
}

impl Model {
    fn apply(&mut self, step: Step) {
        match step {
            Step::Initiate(t) => {
                self.it.push(t);
                self.last_added = t;
            }
            Step::Complete(t) => {
                let i = self.it.iter().position(|&x| x == t).expect("completed an initiated time");
                self.it.swap_remove(i);
                self.ct.push(t);
            }
            // Whatever is still in flight will never complete.
            Step::Finish => {
                self.it.clear();
                self.finished = true;
            }
        }
    }

    /// `T_LI`: the lowest time in IT, or the last known lowest when IT is
    /// empty.
    fn tli(&self) -> i64 {
        if self.finished {
            return STREAM_END.millis();
        }
        self.it.iter().copied().min().unwrap_or(self.last_added)
    }

    /// `T_LC`: the highest completed time below `T_LI`.
    fn tlc(&self) -> i64 {
        let tli = self.tli();
        self.ct.iter().copied().filter(|&c| c < tli).max().unwrap_or(0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every step each stream publishes the Fig. 7 `T_LI`/`T_LC`, and
    /// GCT is the running maximum of Fig. 7's `T_GC`: monotone, below every
    /// operation a live stream has yet to complete, and at the end the
    /// highest due time that completed.
    #[test]
    fn gct_is_safe_monotone_and_live(
        streams in (2usize..=5).prop_flat_map(|n| vec(stream_strategy(), n..=n)),
        picks in vec(0usize..5, 0..120),
    ) {
        let n = streams.len();
        let gds = Gds::new(n);
        let scripts: Vec<Vec<Step>> = streams.iter().map(|(d, stop)| script(d, *stop)).collect();
        let mut next = vec![0usize; n];
        let mut models: Vec<Model> = (0..n).map(|_| Model::default()).collect();
        let mut gct_model = 0i64;
        let mut last = vec![(0i64, 0i64); n];

        let mut step = |s: usize| {
            let Some(&op) = scripts[s].get(next[s]) else { return };
            next[s] += 1;
            let lds = gds.stream(s);
            match op {
                Step::Initiate(t) => lds.initiate(SimTime(t)),
                Step::Complete(t) => lds.complete(SimTime(t)),
                Step::Finish => lds.finish(),
            }
            models[s].apply(op);

            for (i, m) in models.iter().enumerate() {
                let published = (gds.stream(i).tli().millis(), gds.stream(i).tlc().millis());
                prop_assert_eq!(published, (m.tli(), m.tlc()), "stream {} after {:?}", i, op);
                prop_assert!(published.0 >= last[i].0 && published.1 >= last[i].1);
                last[i] = published;
            }
            let tgi = models.iter().map(Model::tli).min().unwrap();
            let raw = models.iter().map(Model::tlc).filter(|&c| c < tgi).max().unwrap_or(0);
            gct_model = gct_model.max(raw);
            let gct = gds.gct().millis();
            prop_assert_eq!(gct, gct_model, "after {:?} on stream {}", op, s);
            // Safe: a live stream's next uncompleted operation is due later.
            for (i, m) in models.iter().enumerate() {
                let pending = streams[i].0.get(m.ct.len());
                prop_assert!(
                    m.finished || pending.is_none_or(|&t| t > gct),
                    "GCT={} but stream {} has {:?} uncompleted", gct, i, pending
                );
            }
        };

        for &pick in &picks {
            step(pick % n);
        }
        for (s, script) in scripts.iter().enumerate() {
            for _ in 0..script.len() {
                step(s);
            }
        }
        let completed = models.iter().flat_map(|m| m.ct.iter().copied()).max().unwrap_or(0);
        prop_assert_eq!(gds.gct(), SimTime(completed));
        if streams.iter().all(|(_, stop)| stop.is_none()) {
            let global_max = streams.iter().flat_map(|(d, _)| d.iter().copied()).max();
            prop_assert_eq!(gds.gct(), SimTime(global_max.unwrap_or(0)));
        }
    }

    /// One stream on its own: `T_LI` and `T_LC` never move back over its
    /// whole life, and once it finishes `T_LC` is the last due time it
    /// completed, with an operation dropped in flight not counted.
    #[test]
    fn tli_tlc_are_monotone((dues, stop) in stream_strategy()) {
        let gds = Gds::new(1);
        let lds = gds.stream(0);
        let mut last = (lds.tli(), lds.tlc());
        let mut completed = 0i64;
        for step in script(&dues, stop) {
            match step {
                Step::Initiate(t) => lds.initiate(SimTime(t)),
                Step::Complete(t) => {
                    lds.complete(SimTime(t));
                    completed = t;
                }
                Step::Finish => lds.finish(),
            }
            prop_assert!(lds.tli() >= last.0, "T_LI fell after {:?}", step);
            prop_assert!(lds.tlc() >= last.1, "T_LC fell after {:?}", step);
            last = (lds.tli(), lds.tlc());
        }
        prop_assert_eq!(lds.tli(), STREAM_END);
        prop_assert_eq!(lds.tlc(), SimTime(completed));
    }
}
