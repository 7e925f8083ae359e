package transform

// Golden outputs of TestOpsDoNotMutateInput and TestOpsChainOverSharedRows,
// recorded from the implementation in which every op deep-copied its input
// (commit b620646). That recording's chain also renamed who to vendor and
// zero-filled amtish; goldenChain is it without those two steps, so who
// keeps its name and amtish keeps its NULLs.
const (
	goldenParseDatesStrict = `t id:bigint day:timestamp dayish:varchar amt:varchar amtish:varchar x:double y:double who:varchar
bigint:1 | timestamp:2020-01-15 | varchar:2020-01-15 | varchar:1,200.50 | varchar:$99 | double:0 | double:10 | varchar:ACME GmbH
bigint:2 | timestamp:2021-03-05 | varchar:n.d. | varchar:45% | varchar:unknown | double:10 | null: | varchar:supplier-12
bigint:3 | null: | null: | null: | null: | double:20 | double:30 | varchar:Globex
bigint:4 | timestamp:2021-07-04 | varchar:07/04/2021 | varchar:12.5 ppm | varchar:7 | double:30 | null: | varchar:nobody
bigint:5 | timestamp:2022-02-02 | varchar:soon | varchar:3 | varchar:8 USD | double:40 | double:50 | varchar:Initech`

	goldenParseDatesLenient = `t id:bigint day:varchar dayish:timestamp amt:varchar amtish:varchar x:double y:double who:varchar
bigint:1 | varchar:2020-01-15 | timestamp:2020-01-15 | varchar:1,200.50 | varchar:$99 | double:0 | double:10 | varchar:ACME GmbH
bigint:2 | varchar:March 5, 2021 | null: | varchar:45% | varchar:unknown | double:10 | null: | varchar:supplier-12
bigint:3 | null: | null: | null: | null: | double:20 | double:30 | varchar:Globex
bigint:4 | varchar:2021/07/04 | timestamp:2021-07-04 | varchar:12.5 ppm | varchar:7 | double:30 | null: | varchar:nobody
bigint:5 | varchar:2022-02-02 | null: | varchar:3 | varchar:8 USD | double:40 | double:50 | varchar:Initech`

	goldenToNumberStrict = `t id:bigint day:varchar dayish:varchar amt:double amtish:varchar x:double y:double who:varchar
bigint:1 | varchar:2020-01-15 | varchar:2020-01-15 | double:1200.5 | varchar:$99 | double:0 | double:10 | varchar:ACME GmbH
bigint:2 | varchar:March 5, 2021 | varchar:n.d. | double:0.45 | varchar:unknown | double:10 | null: | varchar:supplier-12
bigint:3 | null: | null: | null: | null: | double:20 | double:30 | varchar:Globex
bigint:4 | varchar:2021/07/04 | varchar:07/04/2021 | double:12.5 | varchar:7 | double:30 | null: | varchar:nobody
bigint:5 | varchar:2022-02-02 | varchar:soon | double:3 | varchar:8 USD | double:40 | double:50 | varchar:Initech`

	goldenToNumberLenient = `t id:bigint day:varchar dayish:varchar amt:varchar amtish:double x:double y:double who:varchar
bigint:1 | varchar:2020-01-15 | varchar:2020-01-15 | varchar:1,200.50 | double:99 | double:0 | double:10 | varchar:ACME GmbH
bigint:2 | varchar:March 5, 2021 | varchar:n.d. | varchar:45% | null: | double:10 | null: | varchar:supplier-12
bigint:3 | null: | null: | null: | null: | double:20 | double:30 | varchar:Globex
bigint:4 | varchar:2021/07/04 | varchar:07/04/2021 | varchar:12.5 ppm | double:7 | double:30 | null: | varchar:nobody
bigint:5 | varchar:2022-02-02 | varchar:soon | varchar:3 | double:8 | double:40 | double:50 | varchar:Initech`

	goldenDeriveFresh = `t id:bigint day:varchar dayish:varchar amt:varchar amtish:varchar x:double y:double who:varchar z:double
bigint:1 | varchar:2020-01-15 | varchar:2020-01-15 | varchar:1,200.50 | varchar:$99 | double:0 | double:10 | varchar:ACME GmbH | double:0
bigint:2 | varchar:March 5, 2021 | varchar:n.d. | varchar:45% | varchar:unknown | double:10 | null: | varchar:supplier-12 | double:20
bigint:3 | null: | null: | null: | null: | double:20 | double:30 | varchar:Globex | double:40
bigint:4 | varchar:2021/07/04 | varchar:07/04/2021 | varchar:12.5 ppm | varchar:7 | double:30 | null: | varchar:nobody | double:60
bigint:5 | varchar:2022-02-02 | varchar:soon | varchar:3 | varchar:8 USD | double:40 | double:50 | varchar:Initech | double:80`

	goldenDeriveFreshAgain = `t id:bigint day:varchar dayish:varchar amt:varchar amtish:varchar x:double y:double who:varchar w:bigint
bigint:1 | varchar:2020-01-15 | varchar:2020-01-15 | varchar:1,200.50 | varchar:$99 | double:0 | double:10 | varchar:ACME GmbH | bigint:101
bigint:2 | varchar:March 5, 2021 | varchar:n.d. | varchar:45% | varchar:unknown | double:10 | null: | varchar:supplier-12 | bigint:102
bigint:3 | null: | null: | null: | null: | double:20 | double:30 | varchar:Globex | bigint:103
bigint:4 | varchar:2021/07/04 | varchar:07/04/2021 | varchar:12.5 ppm | varchar:7 | double:30 | null: | varchar:nobody | bigint:104
bigint:5 | varchar:2022-02-02 | varchar:soon | varchar:3 | varchar:8 USD | double:40 | double:50 | varchar:Initech | bigint:105`

	goldenDeriveReplace = `t id:bigint day:varchar dayish:varchar amt:varchar amtish:varchar x:double y:double who:varchar
bigint:1 | varchar:2020-01-15 | varchar:2020-01-15 | varchar:1,200.50 | varchar:$99 | double:1 | double:10 | varchar:ACME GmbH
bigint:2 | varchar:March 5, 2021 | varchar:n.d. | varchar:45% | varchar:unknown | double:12 | null: | varchar:supplier-12
bigint:3 | null: | null: | null: | null: | double:23 | double:30 | varchar:Globex
bigint:4 | varchar:2021/07/04 | varchar:07/04/2021 | varchar:12.5 ppm | varchar:7 | double:34 | null: | varchar:nobody
bigint:5 | varchar:2022-02-02 | varchar:soon | varchar:3 | varchar:8 USD | double:45 | double:50 | varchar:Initech`

	goldenKeep = `t who:varchar id:bigint
varchar:ACME GmbH | bigint:1
varchar:supplier-12 | bigint:2
varchar:Globex | bigint:3
varchar:nobody | bigint:4
varchar:Initech | bigint:5`

	goldenInterpolate = `t id:bigint day:varchar dayish:varchar amt:varchar amtish:varchar x:double y:double who:varchar
bigint:1 | varchar:2020-01-15 | varchar:2020-01-15 | varchar:1,200.50 | varchar:$99 | double:0 | double:10 | varchar:ACME GmbH
bigint:2 | varchar:March 5, 2021 | varchar:n.d. | varchar:45% | varchar:unknown | double:10 | double:20 | varchar:supplier-12
bigint:3 | null: | null: | null: | null: | double:20 | double:30 | varchar:Globex
bigint:4 | varchar:2021/07/04 | varchar:07/04/2021 | varchar:12.5 ppm | varchar:7 | double:30 | double:40 | varchar:nobody
bigint:5 | varchar:2022-02-02 | varchar:soon | varchar:3 | varchar:8 USD | double:40 | double:50 | varchar:Initech`

	goldenFuzzyJoin = `t_joined id:bigint day:varchar dayish:varchar amt:varchar amtish:varchar x:double y:double who:varchar vendors_who:varchar tier:bigint
bigint:2 | varchar:March 5, 2021 | varchar:n.d. | varchar:45% | varchar:unknown | double:10 | null: | varchar:supplier-12 | varchar:supplier 12 | bigint:2
bigint:5 | varchar:2022-02-02 | varchar:soon | varchar:3 | varchar:8 USD | double:40 | double:50 | varchar:Initech | varchar:initech | bigint:3`

	goldenChain = `t id:bigint dayish:timestamp amtish:double y:double z:double who:varchar
bigint:1 | timestamp:2020-01-15 | double:99 | double:10 | double:20 | varchar:ACME GmbH
bigint:2 | null: | null: | double:20 | double:40 | varchar:supplier-12
bigint:3 | null: | null: | double:30 | double:60 | varchar:Globex
bigint:4 | timestamp:2021-07-04 | double:7 | double:40 | double:80 | varchar:nobody
bigint:5 | null: | double:8 | double:50 | double:100 | varchar:Initech`
)
