//! The simulator flags of the `critpath sim` CLI, and the one model-name
//! rule (also `ADAGP_MODELS`'s).
//!
//! `--no-contention` is applied last, so it wins regardless of flag order.
//! A zero `--bandwidth`, `--buffer-words` or `--dram-ports` is a usage
//! error (`"--bandwidth: must be positive"`), like every other bad value.

use adagp_accel::layer_cost::PredictorCostModel;
use adagp_accel::{AcceleratorConfig, AdaGpDesign, Dataflow};
use adagp_nn::models::CnnModel;
use adagp_sim::{model_sim_layers, Phase, SimConfig, SimLayer};
use adagp_sweep::shapes::cached_shapes;
use adagp_sweep::DatasetScale;
use std::slice::Iter;
use std::str::FromStr;

/// The model named `name`, ignoring case, surrounding whitespace and `-`
/// (`mobilenetv2` selects `MobileNet-V2`).
pub fn find_model(name: &str) -> Option<CnnModel> {
    let canonical = |s: &str| s.trim().to_lowercase().replace('-', "");
    CnnModel::all()
        .into_iter()
        .find(|m| canonical(m.name()) == canonical(name))
}

/// [`find_model`], with the known names in the error.
fn parse_model(raw: &str) -> Result<CnnModel, String> {
    find_model(raw).ok_or_else(|| {
        let known: Vec<&str> = CnnModel::all().into_iter().map(|m| m.name()).collect();
        format!("unknown model `{raw}` (known: {})", known.join(", "))
    })
}

/// The value following `flag`.
pub fn value(flag: &str, args: &mut Iter<'_, String>) -> Result<String, String> {
    args.next()
        .cloned()
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// The number following `flag`.
pub fn number<T: FromStr>(flag: &str, args: &mut Iter<'_, String>) -> Result<T, String> {
    let raw = value(flag, args)?;
    raw.parse()
        .map_err(|_| format!("{flag}: bad value `{raw}`"))
}

/// The positive number following `flag`.
fn positive<T: FromStr + Default + PartialEq>(
    flag: &str,
    args: &mut Iter<'_, String>,
) -> Result<T, String> {
    let n: T = number(flag, args)?;
    if n == T::default() {
        return Err(format!("{flag}: must be positive"));
    }
    Ok(n)
}

/// One simulated cell as the flags select it. Defaults: VGG13 / CIFAR10
/// / ADA-GP-MAX / WS / Phase GP on [`SimConfig::default`].
#[derive(Debug)]
pub struct SimFlags {
    /// `--model`.
    pub model: CnnModel,
    /// `--dataset cifar10|cifar100|imagenet`.
    pub dataset: DatasetScale,
    /// `--design low|efficient|max`; see [`SimFlags::design`].
    design: AdaGpDesign,
    /// `--dataflow ws|os|is|rs`.
    pub dataflow: Dataflow,
    /// `--phase baseline|bp|gp`.
    pub phase: Phase,
    cfg: SimConfig,
    no_contention: bool,
}

impl Default for SimFlags {
    fn default() -> Self {
        SimFlags {
            model: CnnModel::Vgg13,
            dataset: DatasetScale::Cifar10,
            design: AdaGpDesign::Max,
            dataflow: Dataflow::WeightStationary,
            phase: Phase::Gp,
            cfg: SimConfig::default(),
            no_contention: false,
        }
    }
}

impl SimFlags {
    /// Takes `flag` (and its value from `args`) if it is a simulator
    /// flag — the cell flags, `--dram-ports N`, `--bandwidth N`,
    /// `--buffer-words N` and `--no-contention`; returns whether it was.
    pub fn flag(&mut self, flag: &str, args: &mut Iter<'_, String>) -> Result<bool, String> {
        match flag {
            "--model" => self.model = parse_model(&value(flag, args)?)?,
            "--dataset" => {
                self.dataset = match value(flag, args)?.to_ascii_lowercase().as_str() {
                    "cifar10" => DatasetScale::Cifar10,
                    "cifar100" => DatasetScale::Cifar100,
                    "imagenet" => DatasetScale::ImageNet,
                    other => return Err(format!("unknown dataset `{other}`")),
                }
            }
            "--design" => {
                self.design = match value(flag, args)?.to_ascii_lowercase().as_str() {
                    "low" => AdaGpDesign::Low,
                    "efficient" => AdaGpDesign::Efficient,
                    "max" => AdaGpDesign::Max,
                    other => return Err(format!("unknown design `{other}`")),
                }
            }
            "--dataflow" => {
                self.dataflow = match value(flag, args)?.to_ascii_lowercase().as_str() {
                    "ws" => Dataflow::WeightStationary,
                    "os" => Dataflow::OutputStationary,
                    "is" => Dataflow::InputStationary,
                    "rs" => Dataflow::RowStationary,
                    other => return Err(format!("unknown dataflow `{other}`")),
                }
            }
            "--phase" => {
                self.phase = match value(flag, args)?.to_ascii_lowercase().as_str() {
                    "baseline" => Phase::Baseline,
                    "bp" => Phase::Bp,
                    "gp" => Phase::Gp,
                    other => return Err(format!("unknown phase `{other}`")),
                }
            }
            "--dram-ports" => self.cfg.dram_ports = positive(flag, args)?,
            "--bandwidth" => self.cfg.dram_words_per_cycle = Some(positive(flag, args)?),
            "--buffer-words" => self.cfg.buffer_words = Some(positive(flag, args)?),
            "--no-contention" => self.no_contention = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The simulator configuration, `--no-contention` applied last.
    pub fn config(&self) -> SimConfig {
        if self.no_contention {
            SimConfig {
                dram_words_per_cycle: None,
                buffer_words: None,
                ..self.cfg
            }
        } else {
            self.cfg
        }
    }

    /// The design that runs the phase (`None` for the baseline).
    pub fn design(&self) -> Option<AdaGpDesign> {
        (self.phase != Phase::Baseline).then_some(self.design)
    }

    /// The selected model's simulator layers under [`SimFlags::config`].
    pub fn layers(&self) -> Vec<SimLayer> {
        model_sim_layers(
            &AcceleratorConfig::default(),
            self.dataflow,
            &PredictorCostModel::default(),
            &cached_shapes(self.model, self.dataset.input_scale()),
            &self.config(),
        )
    }

    /// `"{model} {dataset} {design} {phase}"`, the trace / report title.
    pub fn title(&self) -> String {
        format!(
            "{} {} {} {}",
            self.model.name(),
            self.dataset.name(),
            self.design().map_or("baseline", |d| d.name()),
            self.phase.name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SimFlags, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut flags = SimFlags::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if !flags.flag(a, &mut it)? {
                return Err(format!("unexpected argument `{a}`"));
            }
        }
        Ok(flags)
    }

    #[test]
    fn model_names_ignore_case_and_dashes() {
        assert_eq!(parse_model("mobilenetv2"), Ok(CnnModel::MobileNetV2));
        assert_eq!(parse_model(" MobileNet-V2 "), Ok(CnnModel::MobileNetV2));
        assert_eq!(find_model("vgg13"), Some(CnnModel::Vgg13));
        let err = parse_model("vgg").unwrap_err();
        assert!(
            err.contains("unknown model `vgg`") && err.contains("VGG13"),
            "{err}"
        );
    }

    #[test]
    fn zero_contention_values_are_usage_errors() {
        for flag in ["--bandwidth", "--buffer-words", "--dram-ports"] {
            assert_eq!(
                parse(&[flag, "0"]).unwrap_err(),
                format!("{flag}: must be positive")
            );
            assert_eq!(
                parse(&[flag, "x"]).unwrap_err(),
                format!("{flag}: bad value `x`")
            );
            assert_eq!(
                parse(&[flag]).unwrap_err(),
                format!("{flag} requires a value")
            );
        }
    }

    #[test]
    fn no_contention_wins_regardless_of_order() {
        let on = parse(&["--bandwidth", "4", "--dram-ports", "2"]).unwrap();
        assert_eq!(on.config().dram_words_per_cycle, Some(4));
        for args in [
            ["--no-contention", "--bandwidth", "4", "--buffer-words", "9"],
            ["--bandwidth", "4", "--buffer-words", "9", "--no-contention"],
        ] {
            let cfg = parse(&args).unwrap().config();
            assert_eq!((cfg.dram_words_per_cycle, cfg.buffer_words), (None, None));
        }
        let base = parse(&["--phase", "baseline", "--design", "low"]).unwrap();
        assert_eq!(base.design(), None);
        assert_eq!(base.title(), "VGG13 Cifar10 baseline baseline");
    }
}
