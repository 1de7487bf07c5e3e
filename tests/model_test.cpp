//===- tests/model_test.cpp - Framework model & rule-set tests -----------===//
//
// Unit tests for the §4.2 framework models (Struts, EJB, entrypoint
// synthesis) and the external SecurityRuleSet API.
//
//===----------------------------------------------------------------------===//

#include "core/SecurityRules.h"
#include "ir/Builder.h"
#include "core/TaintAnalysis.h"
#include "frontend/Parser.h"
#include "model/BuiltinLibrary.h"
#include "model/Ejb.h"
#include "model/Entrypoints.h"
#include "model/Struts.h"

#include <gtest/gtest.h>

using namespace taj;

namespace {

TEST(Model, BuiltinLibraryInstallsCoreClasses) {
  Program P;
  BuiltinLibrary Lib = installBuiltinLibrary(P);
  EXPECT_NE(Lib.String, InvalidId);
  EXPECT_TRUE(P.cls(Lib.String).is(classflags::StringCarrier));
  EXPECT_TRUE(P.cls(Lib.HashMap).is(classflags::Map));
  EXPECT_TRUE(P.cls(Lib.HashMap).is(classflags::Collection));
  EXPECT_TRUE(P.cls(Lib.Thread).is(classflags::Thread));
  EXPECT_EQ(P.method(Lib.GetParameter).SourceRules, rules::All);
  EXPECT_EQ(P.method(Lib.Println).SinkRules, rules::XSS | rules::LEAK);
  EXPECT_TRUE(P.method(Lib.GetWriter).IsFactory);
}

TEST(Model, StrutsSynthesizesTaintedForms) {
  Program P;
  BuiltinLibrary Lib = installBuiltinLibrary(P);
  std::vector<std::string> Errors;
  ASSERT_TRUE(parseTaj(P, R"(
class MyForm extends ActionForm {
  field user: String;
}
class OtherForm extends ActionForm {
  field token: String;
}
class MyAction extends Action {
  method execute(this: MyAction, form: ActionForm): void {
    resp = new Response;
    w = resp.getWriter();
    u = form.user;
    w.println(u);
  }
}
)",
                       &Errors))
      << Errors.front();
  std::vector<MethodId> Drivers =
      applyStrutsModel(P, Lib, {{"MyAction"}});
  ASSERT_EQ(Drivers.size(), 1u);
  EXPECT_TRUE(P.method(Drivers[0]).IsEntry);

  MethodId Root = synthesizeEntrypointDriver(P);
  TaintAnalysis TA(P, AnalysisConfig::hybridUnbounded());
  AnalysisResult R = TA.run({Root});
  EXPECT_FALSE(R.Issues.empty())
      << "framework-populated form fields must be tainted";
}

TEST(Model, StrutsIgnoresUnmappedActions) {
  Program P;
  BuiltinLibrary Lib = installBuiltinLibrary(P);
  std::vector<std::string> Errors;
  ASSERT_TRUE(parseTaj(P, R"(
class LoneAction extends Action {
  method execute(this: LoneAction, form: ActionForm): void { return; }
}
)",
                       &Errors));
  EXPECT_TRUE(applyStrutsModel(P, Lib, {{"NotAnAction"}}).empty());
  EXPECT_TRUE(applyStrutsModel(P, Lib, {}).empty());
}

TEST(Model, EjbDescriptorResolution) {
  Program P;
  installBuiltinLibrary(P);
  std::vector<std::string> Errors;
  ASSERT_TRUE(parseTaj(P, R"(
class H extends EJBHome {}
class B extends Object {}
)",
                       &Errors));
  EjbDescriptor D = resolveEjbDescriptor(
      P, {{"ejb/x", "H", "B"}, {"ejb/missing", "Nope", "B"}});
  EXPECT_EQ(D.JndiBindings.size(), 1u);
  EXPECT_EQ(D.JndiBindings.at("ejb/x"), P.findClass("H"));
  EXPECT_EQ(D.HomeToBean.at(P.findClass("H")), P.findClass("B"));
}

TEST(Model, EntrypointDriverCoversAllEntries) {
  Program P;
  installBuiltinLibrary(P);
  std::vector<std::string> Errors;
  ASSERT_TRUE(parseTaj(P, R"(
class A1 extends Servlet {
  method e1(this: A1, req: Request): void [entry] { x = 1; }
}
class A2 extends Servlet {
  method e2(this: A2, req: Request, resp: Response): void [entry] { x = 2; }
  method notEntry(this: A2): void { x = 3; }
}
)",
                       &Errors));
  MethodId Root = synthesizeEntrypointDriver(P);
  P.indexStatements();
  ClassHierarchy CHA(P);
  PointsToSolver Solver(P, CHA);
  Solver.solve({Root});
  EXPECT_TRUE(
      Solver.isMethodProcessed(P.findMethod(P.findClass("A1"), "e1")));
  EXPECT_TRUE(
      Solver.isMethodProcessed(P.findMethod(P.findClass("A2"), "e2")));
  EXPECT_FALSE(
      Solver.isMethodProcessed(P.findMethod(P.findClass("A2"), "notEntry")));
}

TEST(Model, SecurityRuleSetAppliesByName) {
  Program P;
  installBuiltinLibrary(P);
  std::vector<std::string> Errors;
  ASSERT_TRUE(parseTaj(P, R"(
class MyApi extends Object [library] {
  method fetch(this: MyApi): String [intrinsic(sourcereturn)];
  method emit(this: MyApi, s: String): void [intrinsic(sinkconsume)];
  method clean(this: MyApi, s: String): String [intrinsic(sanitize)];
}
class App extends Servlet {
  method doGet(this: App, req: Request, api: MyApi): void [entry] {
    t = api.fetch();
    api.emit(t);
  }
}
)",
                       &Errors));
  SecurityRuleSet Rules;
  Rules.addSource({"MyApi", "fetch", rules::SQLI});
  Rules.addSink({"MyApi", "emit", rules::SQLI, 0});
  Rules.addSanitizer({"MyApi", "clean", rules::SQLI});
  Rules.addSource({"Nope", "missing", rules::All});
  size_t Unmatched = 0;
  size_t Applied = Rules.apply(P, &Unmatched);
  EXPECT_EQ(Applied, 3u);
  EXPECT_EQ(Unmatched, 1u);

  MethodId Root = synthesizeEntrypointDriver(P);
  TaintAnalysis TA(P, AnalysisConfig::hybridUnbounded());
  AnalysisResult R = TA.run({Root});
  bool SawSqli = false;
  for (const Issue &I : R.Issues)
    SawSqli |= (I.Rule & rules::SQLI) != 0;
  EXPECT_TRUE(SawSqli);
}

TEST(Model, ExceptionToStringIsLeakSource) {
  Program P;
  installBuiltinLibrary(P);
  ClassId Exc = P.findClass("Exception");
  ASSERT_NE(Exc, InvalidId);
  MethodId ToStr = P.findMethod(Exc, "toString");
  ASSERT_NE(ToStr, InvalidId);
  EXPECT_EQ(P.method(ToStr).SourceRules, rules::LEAK);
}

} // namespace
