let size = Fx.Beta.size [ 3 ]
