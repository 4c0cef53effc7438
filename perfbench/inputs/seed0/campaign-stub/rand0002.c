#include <stdio.h>

int main(void) {
    int a;
    int d;
    int c = 3;
    if (d) {
        printf("%d", c);
    }
    if (a) {
        d = 7;
        printf("%d\n", c);
    }
    a = a;
    return a;
}
