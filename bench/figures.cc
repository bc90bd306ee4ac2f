/**
 * @file
 * The figure registry: every paper table and figure tacsim reproduces
 * (DESIGN.md §4), in paper order.
 */

#include "bench_common.hh"

namespace tacbench {

// Each is defined, with external linkage, in its figure's source file.
extern const Figure fig01RobStalls;
extern const Figure fig02IdealCaches;
extern const Figure fig03ResponseDistribution;
extern const Figure fig04TranslationMpki;
extern const Figure fig05RecallTranslation;
extern const Figure fig06ReplayMpki;
extern const Figure fig07RecallReplay;
extern const Figure fig08PrefetcherReplay;
extern const Figure fig10Rrpv0Ablation;
extern const Figure fig12Newsign;
extern const Figure table2Characterization;
extern const Figure fig14Speedup;
extern const Figure fig14Vm;
extern const Figure fig15WithPrefetchers;
extern const Figure fig16StallReduction;
extern const Figure fig16Vm;
extern const Figure fig17Smt;
extern const Figure fig18StlbRecall;
extern const Figure fig19StlbSensitivity;
extern const Figure fig20L2cSensitivity;
extern const Figure fig21LlcSensitivity;
extern const Figure multicoreMixes;
extern const Figure compareCbpred;
extern const Figure compareCsalt;
extern const Figure ablationAtp;
extern const Figure ablationWalker;

const std::vector<const Figure *> &
figures()
{
    static const std::vector<const Figure *> all = {
        &fig01RobStalls, &fig02IdealCaches, &fig03ResponseDistribution,
        &fig04TranslationMpki, &fig05RecallTranslation, &fig06ReplayMpki,
        &fig07RecallReplay, &fig08PrefetcherReplay, &fig10Rrpv0Ablation,
        &fig12Newsign, &table2Characterization, &fig14Speedup, &fig14Vm,
        &fig15WithPrefetchers, &fig16StallReduction, &fig16Vm, &fig17Smt,
        &fig18StlbRecall, &fig19StlbSensitivity, &fig20L2cSensitivity,
        &fig21LlcSensitivity, &multicoreMixes, &compareCbpred, &compareCsalt,
        &ablationAtp, &ablationWalker,
    };
    return all;
}

const Figure *
findFigure(const std::string &name)
{
    for (const Figure *f : figures())
        if (name == f->name)
            return f;
    return nullptr;
}

} // namespace tacbench
